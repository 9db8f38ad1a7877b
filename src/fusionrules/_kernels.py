"""Hot numeric kernels, one interpreted implementation each.

The two kernels here dominate the runtime of large surveys and analyses: the
power iteration behind the Frobenius-Perron dimensions, and the backtracking
search that exhaustively enumerates fusion tensors.  The associativity defect
lives in :mod:`fusionrules.core`, next to ``validate``.
"""

from __future__ import annotations

import numpy as np

# There is no compiled backend.  The constant stays because the benchmark
# harness records it as the kernel backend of each run.
USING_NUMBA = False


# --- spectral radius via power iteration ------------------------------------

def power_radius(mat: np.ndarray, threshold: float, max_iter: int):
    """Spectral radius and Perron vector of a non-negative matrix by power iteration.

    Iterates on ``mat + I`` (the shift keeps periodic non-negative matrices,
    e.g. bipartite fusion matrices, converging) from the all-ones vector and
    subtracts the shift at the end.  Stops once the eigen-residual
    ``|(mat + I) v - est v|`` drops to ``threshold``; a residual test is needed
    because successive radius estimates can momentarily agree while still far
    from the limit when the subdominant eigenvalues are complex.  Returns
    ``(radius, residual, iterations, vector)`` with ``vector`` the last
    unit-norm iterate; converged iff ``residual <= threshold``.
    """
    n = mat.shape[0]
    v = np.ones(n) / np.sqrt(n)
    est = 0.0
    resid = np.inf
    for it in range(1, max_iter + 1):
        w = mat.dot(v) + v
        est = np.sqrt(w.dot(w))
        diff = w - est * v
        resid = np.sqrt(diff.dot(diff))
        v = w / est
        if resid <= threshold:
            return est - 1.0, resid, it, v
    return est - 1.0, resid, max_iter, v


# --- exhaustive tensor search -------------------------------------------------
#
# Data layout (prepared by the explorer module):
#   base      int64[r**3]   flattened tensor, forced entries filled, free == -1
#   orbit_a   int64[T]      flat index of each free orbit's representative cell
#   orbit_b   int64[T]      flat index of the duality-mirror cell (== orbit_a
#                           for self-paired cells); assigning orbit t writes
#                           both cells
#   quad_ptr  int64[T+1]    CSR offsets into `quads`: the associativity
#                           quadruples that become fully determined once orbit
#                           t is assigned
#   quads     int64[Q, 4]   the (i, j, k, l) of each quadruple
#
# The search assigns orbits in order with values 0..max_val and prunes on the
# first violated quadruple.  Solutions are complete flattened tensors.  The
# arrays are converted to Python lists first: indexing lists is much faster
# than indexing ndarrays element by element in the interpreter.


def search_tensors(base, orbit_a, orbit_b, quad_ptr, quads, max_val, rank):
    """Every solution of the search as an int64 array of shape ``(n, rank**3)``."""
    T = len(orbit_a)
    r = rank
    tensor = list(base)
    oa = list(orbit_a)
    ob = list(orbit_b)
    ptr = list(quad_ptr)
    qd = [tuple(row) for row in quads]
    vals = [-1] * T
    solutions = []
    t = 0
    while t >= 0:
        v = vals[t] + 1
        if v > max_val:
            vals[t] = -1
            tensor[oa[t]] = -1
            tensor[ob[t]] = -1
            t -= 1
            continue
        vals[t] = v
        tensor[oa[t]] = v
        tensor[ob[t]] = v
        ok = True
        for q in range(ptr[t], ptr[t + 1]):
            i, j, k, l = qd[q]
            s = 0
            for m in range(r):
                s += tensor[(i * r + j) * r + m] * tensor[(m * r + k) * r + l]
                s -= tensor[(j * r + k) * r + m] * tensor[(i * r + m) * r + l]
            if s != 0:
                ok = False
                break
        if ok:
            if t == T - 1:
                solutions.append(tuple(tensor))
            else:
                t += 1
    if not solutions:
        return np.empty((0, base.size), dtype=np.int64)
    return np.array(solutions, dtype=np.int64)
