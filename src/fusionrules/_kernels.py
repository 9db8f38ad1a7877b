"""Hot numeric kernels, one interpreted implementation each.

Two kernels live here: the power iteration behind the Frobenius-Perron
dimensions, and the backtracking search that exhaustively enumerates fusion
tensors.  The search is most of a census; a survey runs the power iteration
once per isomorphism class, not per labelled rule.  The associativity defect
lives in :mod:`fusionrules.core`, next to ``validate``.
"""

from __future__ import annotations

from collections import Counter
from operator import itemgetter, mul

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
# The plan (prepared by the explorer module) is plain Python:
#   base     the flattened tensor as a list, forced cells filled, free cells -1
#   orbit_a  flat index of each free orbit's representative cell, its least
#   orbit_b  the tuple of the orbit's other cells (its dual mirror and, with a
#            unique vacuum channel, its reciprocity images; empty for a 1-cell
#            orbit); assigning orbit t writes every cell of the orbit
#   quads    one (t, i, j, k, l) per associativity quadruple, with t the orbit
#            whose assignment completes it (the explorer keeps one quadruple of
#            each dual-mirror pair, whose equations coincide on dual-symmetric
#            tensors)
#   symmetries  cell maps P of relabellings that fix the dual: the relabelled
#            tensor is T[P[c]] at each flat cell c.  May be empty.
#
# The search assigns orbits in order with values 0..max_val, or with the one
# value a quadruple forces (below), and prunes on the
# first violated quadruple of the orbit just assigned, then on the first
# symmetry under which the partial tensor cannot be lex-least.  Solutions are
# the complete flattened tensors T with T <= PT for every P, as tuples, in
# search order.
#
# The lex-leader test walks the cells in flat order and compares T[c] with
# T[P[c]] while both are known; the first difference decides, so T > PT on
# that prefix rules out every completion.  Which cells are known after orbit t
# does not depend on the values, so each prefix is compiled once: it grows by
# the cells that orbit t makes comparable, and a symmetry is checked at t only
# if its prefix grew.  Cells whose two sides always hold the same value (both
# forced equal, or one orbit) are left out.  A check is one tuple comparison
# of two itemgetters.
#
# Each quadruple is compiled once per call.  Its left side pairs the cells
# (i, j, m) and (m, k, l), its right side (j, k, m) and (i, m, l).  A term with
# a cell forced to 0 is dropped; forced cells are never written, because the
# orbits hold only the free cells.  Each cell is read through its stand-in (its
# orbit's representative, or the first forced cell of equal value), so a term
# on both sides cancels, and a quadruple with nothing left never prunes and is
# dropped.  The first and second factors of each side become one
# ``operator.itemgetter`` each over the tensor, and a check is
# ``sum(map(mul, ...))`` per side, evaluated by C-level builtins.  An
# itemgetter of one index returns a scalar, not a tuple, so shorter sides are
# padded with an always-zero cell appended to the tensor.
#
# Forced values.  A compiled quadruple completed at orbit t whose terms never
# pair two cells of orbit t is linear in that orbit's value x: lhs - rhs =
# alpha * x - beta, where alpha sums the other factor of each term holding x
# (left minus right) and beta the terms free of x (right minus left).  Both
# read only forced cells and cells of earlier orbits, never a stale value of
# orbit t or a later one.  On entering orbit t the search reads alpha for up to
# FORCING_CANDIDATES such quadruples, fewest terms first and one per alpha up
# to sign (equal alphas read 0 together), and the first with alpha != 0
# decides: only beta / alpha can pass, so that value alone is written, or none
# if it is not an integer in 0..max_val.  Every quadruple and lex-leader check
# still runs on the written value, so the solutions and their order are those
# of trying every value; only values that would fail are skipped.  The cap
# bounds the reads on each entry when many alphas read 0; lifting it saved
# about 3% or less of the nodes of any class through r6 m1, and no time.
FORCING_CANDIDATES = 3


def search_tensors(plan, max_val, rank):
    """Every solution of the search as a flattened tensor tuple, in search order."""
    r = rank
    oa, ob = plan.orbit_a, plan.orbit_b
    cells = len(plan.base)
    if not oa:
        return [tuple(plan.base)]
    tensor = plan.base + [0]
    stand_in = [c if x < 0 else tensor.index(x) for c, x in enumerate(tensor)]
    for a, others in zip(oa, ob):
        for b in others:
            stand_in[b] = a

    def side(pairs):
        return Counter(
            tuple(sorted((stand_in[a], stand_in[b]))) for a, b in pairs if tensor[a] and tensor[b]
        )

    def getters(pairs):
        first, second = zip(*pairs, *[(cells, cells)] * (2 - len(pairs)))
        return itemgetter(*first), itemgetter(*second)

    def summed(factors):
        return itemgetter(*factors, *[cells] * (2 - len(factors)))

    checks = [[] for _ in oa]
    linear = [[] for _ in oa]  # (terms, lhs - rhs, rhs - lhs) linear in orbit t
    for t, i, j, k, l in plan.quads:
        lhs = side(((i * r + j) * r + m, (m * r + k) * r + l) for m in range(r))
        rhs = side(((j * r + k) * r + m, (i * r + m) * r + l) for m in range(r))
        if lhs != rhs:
            plus, minus = list((lhs - rhs).elements()), list((rhs - lhs).elements())
            checks[t].append(getters(plus) + getters(minus))
            x = oa[t]
            if (x, x) not in plus and (x, x) not in minus:
                linear[t].append((len(plus) + len(minus), plus, minus))
    forcing = []
    for x, found in zip(oa, linear):
        by_alpha = {}  # one quadruple per alpha up to sign: if it reads 0, so do the rest
        for _, plus, minus in sorted(found, key=itemgetter(0)):
            if len(by_alpha) == FORCING_CANDIDATES:
                break
            # the other factor a + b - x of each term with x in (a, b)
            cp = tuple(sorted(a + b - x for a, b in plus if x in (a, b)))
            cm = tuple(sorted(a + b - x for a, b in minus if x in (a, b)))
            if cp or cm:
                by_alpha.setdefault(min((cp, cm), (cm, cp)), (cp, cm, plus, minus))
        forcing.append([
            (summed(cp), summed(cm))
            + getters([ab for ab in minus if x not in ab])
            + getters([ab for ab in plus if x not in ab])
            for cp, cm, plus, minus in by_alpha.values()
        ])

    known_at = [-1] * cells
    for t, (a, others) in enumerate(zip(oa, ob)):
        for c in (a, *others):
            known_at[c] = t
    lex = [[] for _ in oa]
    for p in plan.symmetries:
        steps = []  # (orbit after which the flat prefix up to c is known, c)
        ready = 0
        for c in range(cells):
            ready = max(ready, known_at[c], known_at[p[c]])
            if stand_in[c] != stand_in[p[c]]:
                steps.append((ready, c))
        for n, (t, _) in enumerate(steps):
            if n + 1 == len(steps) or steps[n + 1][0] > t:
                prefix = [c for _, c in steps[: n + 1]]
                images = [p[c] for c in prefix]
                if len(prefix) == 20:
                    # CPython 3.11 keeps every freed 20-item tuple on a free
                    # list it never reuses (up to 2000, 0.35 MiB); pad with
                    # the always-zero cell to 21 items
                    prefix.append(cells)
                    images.append(cells)
                lex[t].append((itemgetter(*prefix), itemgetter(*images)))

    last = len(oa) - 1
    vals = [-1] * len(oa)
    solutions = []
    t = 0
    while t >= 0:
        v = vals[t] + 1
        if v > max_val:
            vals[t] = -1
            t -= 1
            continue
        vals[t] = v
        if not v:
            for gp, gm, ga, gb, gc, gd in forcing[t]:
                alpha = sum(gp(tensor)) - sum(gm(tensor))
                if alpha:
                    beta = sum(map(mul, ga(tensor), gb(tensor))) - sum(map(mul, gc(tensor), gd(tensor)))
                    v, rem = divmod(beta, alpha)
                    vals[t] = max_val  # no other value can pass
                    if rem or not 0 <= v <= max_val:
                        v = -1
                    break
            if v < 0:
                continue
        tensor[oa[t]] = v
        for c in ob[t]:
            tensor[c] = v
        for ga, gb, gc, gd in checks[t]:
            if sum(map(mul, ga(tensor), gb(tensor))) != sum(map(mul, gc(tensor), gd(tensor))):
                break
        else:
            for ga, gb in lex[t]:
                if ga(tensor) > gb(tensor):
                    break
            else:
                if t == last:
                    solutions.append(tuple(tensor[:cells]))
                else:
                    t += 1
    return solutions
