"""Exact fusion rules: the data type, axiom validation, Frobenius-Perron
dimensions, and direct products.

A fusion rule is a finite label set with a dual involution and a non-negative
integer tensor ``N[i, j, k]`` giving the multiplicity of label ``k`` in the
fusion product of ``i`` and ``j``.  Index 0 is always the vacuum.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import CapacityError, NumericalError, StructuralError

POWER_ITERATION_CAP = 10**6
FP_TOLERANCE = 1e-6  # the float checks of non-integral dims
FP_DIM_CAP = 2**17  # from here on those checks could miss an integer dim

__all__ = [
    "FusionRule",
    "Violation",
    "ValidationReport",
    "FPDimData",
    "validate",
    "fp_dimensions",
    "product",
]

_SIGNED = (np.int8, np.int16, np.int32, np.int64)


def _narrowest_int(top: int) -> type:
    """The narrowest signed integer dtype that holds every value in ``0..top``."""
    return next(dtype for dtype in _SIGNED if top <= np.iinfo(dtype).max)


def default_labels(rank: int) -> tuple[str, ...]:
    return ("1",) + tuple(f"x{i}" for i in range(1, rank))


@dataclass(frozen=True)
class FusionRule:
    """Immutable fusion rule: labels, dual involution, and fusion tensor.

    Only structural well-formedness is enforced at construction (shapes,
    dtypes, ``dual`` a permutation); whether the tensor satisfies the fusion
    axioms is the business of :func:`validate`.

    The tensor is a read-only, C-ordered signed-integer cube.  A read-only
    int8, int16, int32 or int64 cube that owns its data is kept as it is, so
    a producer can hand over a narrow cube uncopied; any other tensor is
    copied into int64.  Equality and hashing ignore the dtype, and every
    analysis sums or multiplies entries in int64 or float.
    """

    labels: tuple[str, ...]
    dual: tuple[int, ...]
    tensor: np.ndarray

    def __post_init__(self):
        if isinstance(self.labels, str):
            raise StructuralError(f"labels must be a sequence of strings, not the string {self.labels!r}")
        labels = tuple(self.labels)
        if not all(isinstance(x, str) for x in labels):
            raise StructuralError(f"labels must be strings: {labels!r}")
        labels = tuple(map(str, labels))  # str subclasses such as numpy.str_ become str
        rank = len(labels)
        if rank < 1:
            raise StructuralError("a fusion rule needs at least the vacuum label")
        try:
            dual = tuple(operator.index(d) for d in self.dual)
        except TypeError as exc:
            raise StructuralError(f"dual map entries must be integers: {exc}") from None
        if sorted(dual) != list(range(rank)):
            raise StructuralError(f"dual map {dual} is not a permutation of 0..{rank - 1}")
        tensor = np.asarray(self.tensor)
        if tensor.shape != (rank, rank, rank):
            raise StructuralError(
                f"tensor shape {tensor.shape} does not match rank {rank} (need rank**3 entries)"
            )
        if tensor.dtype.kind not in "biuf":  # ints past 64 bits arrive as object arrays
            raise StructuralError(f"tensor entries must be numbers within 64 bits, got {tensor.dtype}")
        if not np.issubdtype(tensor.dtype, np.integer):
            if not np.all(np.isfinite(tensor)):
                raise StructuralError("tensor entries must be finite")
            if not np.all(tensor == np.round(tensor)):
                raise StructuralError("tensor entries must be integers")
        # range checks before the cast, which would wrap or saturate out-of-range values
        if tensor.min() < 0:
            raise StructuralError("tensor entries must be non-negative")
        # only uint64 and float dtypes hold values of 2**63 or more
        if not np.can_cast(tensor.dtype, np.int64) and int(tensor.max()) >= 2**63:
            raise StructuralError("tensor entries must be below 2**63 to fit int64")
        flags = tensor.flags  # a read-only signed-integer cube that owns its data is kept as it is
        if tensor.dtype not in _SIGNED or flags.writeable or not (flags.owndata and flags.c_contiguous):
            tensor = tensor.astype(np.int64, order="C")
            tensor.flags.writeable = False
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "dual", dual)
        object.__setattr__(self, "tensor", tensor)

    @property
    def rank(self) -> int:
        return len(self.labels)

    def outcomes(self, i: int, j: int) -> dict[int, int]:
        """Nonzero fusion channels of ``i x j`` as ``{k: multiplicity}``."""
        row = self.tensor[i, j]
        return {int(k): int(row[k]) for k in np.nonzero(row)[0]}

    @property
    def is_pointed(self) -> bool:
        """Every product has a single outcome (group-like rule)."""
        return bool(np.all(self.tensor.sum(axis=2) == 1))

    def same_tensor(self, other: "FusionRule") -> bool:
        """Equality of dual map and tensor, ignoring display names."""
        return self.dual == other.dual and np.array_equal(self.tensor, other.tensor)

    def __eq__(self, other):
        if not isinstance(other, FusionRule):
            return NotImplemented
        return self.labels == other.labels and self.same_tensor(other)

    def __hash__(self):
        return hash((self.labels, self.dual, self.tensor.astype(np.int64, copy=False).tobytes()))

    def __repr__(self):
        return f"FusionRule(rank={self.rank}, labels={list(self.labels)})"


@dataclass(frozen=True)
class Violation:
    axiom: str
    index: tuple[int, ...]
    message: str


@dataclass(frozen=True)
class ValidationReport:
    valid: bool
    violations: tuple[Violation, ...]

    def codes(self) -> tuple[str, ...]:
        return tuple(sorted({v.axiom for v in self.violations}))

    @property
    def only_vacuum_uniqueness(self) -> bool:
        """True when the rule satisfies every axiom except the imposed
        single-vacuum-channel condition (interesting edge of the axiom set)."""
        return bool(self.violations) and all(
            v.axiom == "vacuum_uniqueness" for v in self.violations
        )


def _associativity_defects(N: np.ndarray, nonzero=None):
    """Yield ``(i, j, k, l, lhs - rhs)`` for every violated quadruple, in
    lexicographic order of ``(i, j, k, l)``; ``nonzero`` is ``_nonzero(N)``
    when the caller has it.

    Every partial sum of ``lhs = sum_m N[i,j,m] N[m,k,l]`` (and of ``rhs``) is
    a non-negative integer no larger than ``rank * max(N)**2``, so int64 is
    exact up to 2**63 - 1 and a tensor past it raises ``CapacityError``.  A
    tensor that ``_commuting_certificate`` proves associative yields nothing;
    every other tensor is listed by ``_assoc_sparse``.
    """
    r = N.shape[0]
    nonzero = _nonzero(N) if nonzero is None else nonzero
    top = int(nonzero[-1].max(initial=0))
    if r * top**2 > 2**63 - 1:
        raise CapacityError(
            f"associativity check needs rank * max(N)**2 <= 2**63 - 1; this rank-{r} "
            f"tensor has max entry {top}"
        )
    if not _commuting_certificate(N, top, nonzero):
        yield from _assoc_sparse(N, nonzero)


# A prime with rank * p**2 < 2**63 up to rank 8,191, far past any cube in memory.
_KRYLOV_PRIME = 33_554_393


def _commuting_certificate(N: np.ndarray, top: int, nonzero) -> bool:
    """True only when every associativity defect of ``N`` is 0, proved in
    ``rank**4`` work; False leaves the question open.  ``nonzero`` is
    ``_nonzero(N)``.

    For a commutative tensor (``N[a,b,c] == N[b,a,c]``, tested over the
    nonzero cells as ``validate`` tests dual symmetry) the defect at
    ``(i, j, k, l)`` is ``[N_i, N_k][j, l]`` with ``N_i = N[i]``.  Take
    ``A = sum_i c_i N_i`` with seeded integers ``c_i``.  When some ``v`` has a
    Krylov matrix ``v, vA, ..., vA**(rank-1)`` of full rank mod a prime, its
    determinant is a nonzero integer, so ``A`` is cyclic over Q and only the
    polynomials in ``A`` commute with it.  Then ``N_i A == A N_i`` for every
    ``i``, checked exactly one slab at a time, puts every ``N_i`` in Q[A], so
    they commute pairwise.  Entries of those products are at most
    ``rank * max(A) * top``, so float32 BLAS is exact while that is within
    2**24 and float64 within 2**53.  ``c`` is drawn once in each range that
    leaves it at least 1,024 values, float32's first, up to the first cyclic
    ``A``; a non-commutative tensor, or no cyclic ``A``, gives False.
    """
    r, p = N.shape[0], _KRYLOV_PRIME
    a, b, c, values = nonzero
    if r * p * p >= 2**63 or not np.array_equal(N.take((b * r + a) * r + c), values):
        return False
    # the caller's rank * top**2 <= 2**63 - 1 keeps sum_i N_i from wrapping;
    # r * top * max(A) <= bound * max(c) <= limit
    bound = max(1, r * top * int(N.sum(axis=0).max()))
    rng = np.random.default_rng(0)
    for limit, dtype in ((2**24, np.float32), (2**53, np.float64)):
        if limit // bound < 1024:
            continue
        A = np.einsum("i,ijk->jk", rng.integers(1, limit // bound, size=r, endpoint=True), N)
        A_p, v = A % p, rng.integers(1, p, size=r)
        krylov = np.empty((r, r), dtype=np.int64)
        for n in range(r):
            krylov[n], v = v, v @ A_p % p
        if _full_rank_mod(krylov, p):
            break
    else:
        return False
    Af = A.astype(dtype)
    for i in range(r):
        Ni = N[i].astype(dtype)
        if not np.array_equal(Ni @ Af, Af @ Ni):
            return False
    return True


def _full_rank_mod(K: np.ndarray, p: int) -> bool:
    """Whether the square matrix ``K``, with entries in ``[0, p)``, is
    invertible mod ``p``, by elimination.  Only the pivot row and column are
    reduced; each step takes less than ``p**2`` off the rest, so within
    ``rank * p**2 < 2**63`` nothing wraps."""
    K = K.copy()
    for j in range(len(K)):
        col = K[j:, j] % p
        if not col[0]:
            nonzero = np.flatnonzero(col)
            if not nonzero.size:
                return False
            s = nonzero[0]
            K[[j, j + s]], col[[0, s]] = K[[j + s, j]], col[[s, 0]]
        row = K[j, j + 1:] % p * pow(int(col[0]), -1, p) % p
        K[j + 1:, j + 1:] -= np.outer(col[1:], row)
    return True


def _nonzero(N: np.ndarray):
    """The indices ``i, j, k`` of the nonzero cells of a cube, in
    lexicographic order, and their values.  Scanning ``N != 0`` is about 4x
    faster than ``np.flatnonzero(N)`` on int64."""
    cells = np.flatnonzero(N.ravel() != 0)
    return (*np.unravel_index(cells, N.shape), N.take(cells))


def _expand(offsets: np.ndarray, m: np.ndarray):
    """Repeat counts and concatenated positions of the ranges
    ``offsets[m]:offsets[m + 1]``, one range per entry of ``m``."""
    n = offsets[m + 1] - offsets[m]
    return n, np.repeat(offsets[m] - np.cumsum(n) + n, n) + np.arange(n.sum())


def _assoc_sparse(N: np.ndarray, nonzero):
    """Gustavson-style int64 products over the nonzeros ``_nonzero(N)``, one
    ``i`` at a time; they are lexicographic and so grouped by ``a``.

    For the entries ``(i, j, m)`` of row ``i``, the lhs terms pair them with
    the entries ``(m, k, l)`` (offsets by first index) and the rhs terms pair
    the same entries, read as ``(i, m, l)``, with ``(j, k, m)`` (offsets by
    last index).  Each term is keyed ``(j*r + k)*r + l``, so sorting the keys
    and summing equal runs gives the defects in lexicographic order.
    """
    r = N.shape[0]
    a, b, c, v = nonzero
    v = v.astype(np.int64, copy=False)
    by_first = np.concatenate(([0], np.bincount(a, minlength=r).cumsum()))
    by_last = np.concatenate(([0], np.bincount(c, minlength=r).cumsum()))
    to_m = np.argsort(c, kind="stable")
    kl = b * r + c                             # (k, l) of N[m, k, l]
    jk = (a[to_m] * r + b[to_m]) * r           # (j, k) of N[j, k, m]
    jk_v = v[to_m]
    for i in range(r):
        row = slice(by_first[i], by_first[i + 1])
        p, q, x = b[row], c[row], v[row]       # the entries N[i, p, q]
        n, f = _expand(by_first, q)            # lhs: N[i, j=p, m=q] N[m, k, l]
        n2, g = _expand(by_last, p)            # rhs: N[j, k, m=p] N[i, m, l=q]
        keys = np.concatenate((np.repeat(p * r * r, n) + kl[f], jk[g] + np.repeat(q, n2)))
        vals = np.concatenate((np.repeat(x, n) * v[f], -np.repeat(x, n2) * jk_v[g]))
        if not keys.size:
            continue
        order = np.argsort(keys, kind="stable")  # merges the runs the expansion leaves sorted
        keys, vals = keys[order], vals[order]
        starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
        sums = np.add.reduceat(vals, starts)
        hit = np.flatnonzero(sums)
        for key, value in zip(keys[starts[hit]].tolist(), sums[hit].tolist()):
            jk_key, l = divmod(key, r)
            j, k = divmod(jk_key, r)
            yield i, j, k, l, value


def validate(rule: FusionRule) -> ValidationReport:
    """Check every fusion axiom instance and report all violations.

    Covers: the dual being an involution fixing the vacuum, the vacuum acting
    as a two-sided unit, the dual symmetry ``N[i,j,k] == N[dual(j),dual(i),dual(k)]``,
    associativity, vacuum multiplicity ``N[i,dual(i),0] == 1``, uniqueness of
    the vacuum channel (``N[i,j,0] == 0`` for ``j != dual(i)``; reported under
    its own code so rules failing only this can be told apart), and the derived
    symmetry ``N[i,dual(i),j] == N[i,dual(i),dual(j)]``.  Violations are
    reported axiom by axiom in that order, each axiom's by lexicographic index.
    """
    N = rule.tensor
    dual = rule.dual
    r = rule.rank
    out: list[Violation] = []

    if dual[0] != 0:
        out.append(Violation("involution", (0,), f"dual(0) = {dual[0]}, must fix the vacuum"))
    for i in range(r):
        if dual[dual[i]] != i:
            out.append(
                Violation("involution", (i,), f"dual(dual({i})) = {dual[dual[i]]}, not an involution")
            )

    eye = np.eye(r, dtype=np.int64)
    for j, k in np.argwhere(N[0] != eye):
        want = 1 if j == k else 0
        out.append(Violation("unit", (0, int(j), int(k)), f"N[0,{j},{k}] = {N[0, j, k]}, expected {want}"))
    # N[0,0,k] lies in the vacuum row too, so the column starts at i = 1
    for i, k in np.argwhere(N[1:, 0, :] != eye[1:]) + (1, 0):
        want = 1 if i == k else 0
        out.append(Violation("unit", (int(i), 0, int(k)), f"N[{i},0,{k}] = {N[i, 0, k]}, expected {want}"))

    # the mirror m(i,j,k) = (dual j, dual i, dual k) is a bijection, so N == N o m
    # holds iff it holds on the nonzero cells S; else it fails only on S and m^-1(S)
    d = np.array(dual)
    nonzero = i, j, k, values = _nonzero(N)
    if not np.array_equal(N.take((d[j] * r + d[i]) * r + d[k]), values):
        inv = np.argsort(d)
        cells = np.union1d((i * r + j) * r + k, (inv[j] * r + inv[i]) * r + inv[k])
        i, j, k = np.unravel_index(cells, N.shape)
        here, mirrored = N.take(cells), N.take((d[j] * r + d[i]) * r + d[k])
        bad = here != mirrored
        for i, j, k, x, y in zip(*(a[bad].tolist() for a in (i, j, k, here, mirrored))):
            out.append(
                Violation(
                    "dual_symmetry",
                    (i, j, k),
                    f"N[{i},{j},{k}] = {x} but the dual-mirrored entry is {y}",
                )
            )

    for i, j, k, l, value in _associativity_defects(N, nonzero):
        out.append(
            Violation(
                "associativity",
                (i, j, k, l),
                f"sum_m N[{i},{j},m]N[m,{k},{l}] - N[{j},{k},m]N[{i},m,{l}] = {value}",
            )
        )

    labels_range = np.arange(r)
    for i in labels_range[N[labels_range, d, 0] != 1]:
        out.append(
            Violation(
                "vacuum_multiplicity",
                (int(i),),
                f"N[{i},{dual[i]},0] = {N[i, dual[i], 0]}, the vacuum must appear exactly once",
            )
        )
    off_dual = N[:, :, 0] != 0
    off_dual[labels_range, d] = False
    for i, j in np.argwhere(off_dual):
        out.append(
            Violation(
                "vacuum_uniqueness",
                (int(i), int(j)),
                f"N[{i},{j},0] = {N[i, j, 0]} but {j} is not the dual of {i}",
            )
        )

    pair_rows = N[labels_range, d, :]  # row i is the expansion of x_i (dual x_i)
    for i, j in np.argwhere(pair_rows != pair_rows[:, d]):
        out.append(
            Violation(
                "adjoint_symmetry",
                (int(i), int(j)),
                f"N[{i},{dual[i]},{j}] = {N[i, dual[i], j]} != "
                f"{N[i, dual[i], dual[j]]} = N[{i},{dual[i]},{dual[j]}]",
            )
        )

    return ValidationReport(valid=not out, violations=tuple(out))


@dataclass(frozen=True)
class FPDimData:
    """Frobenius-Perron dimensions of every label plus integrality flags."""

    dims: tuple[float, ...]
    global_dim: float
    is_integral: bool
    is_weakly_integral: bool

    def __iter__(self):
        return iter(self.dims)


def _integer_dims(N: np.ndarray, d: np.ndarray, top: int) -> np.ndarray | None:
    """``m = rint(d)`` when ``m >= 1`` and ``sum_c N[a,b,c] m_c == m_a m_b``
    exactly in int64, else None.  A positive eigenvector of a non-negative
    matrix belongs to its spectral radius, so ``m`` holds the FP dimensions.
    ``top`` bounds the entries, so no term passes ``rank * top * max(m)``."""
    r = N.shape[0]
    m = np.rint(d)
    # at a = b = argmax, m_a**2 = sum_c N[a,a,c] m_c <= r * top * m_a fails for a larger m
    if m.min() < 1 or float(m.max()) > r * top:
        return None
    if r * top * int(m.max()) > 2**63 - 1:
        raise CapacityError(f"integer FP-dim check: {r} * {top} * {int(m.max())} is past 2**63 - 1")
    m = m.astype(np.int64)
    return m if np.array_equal(np.einsum("abc,c->ab", N, m), np.outer(m, m)) else None


def fp_dimensions(rule: FusionRule) -> FPDimData:
    """FP dimensions, global dimension and integrality verdicts of a fusion
    ring; the verdicts presume one, so validate first.

    Power iteration on ``sum_i N_i`` (threshold ``FP_TOLERANCE * 1e-2``, cap
    ``10**6``) gives a Perron vector ``d`` with ``d[0] = 1``; a tensor whose
    ``rank * max(N)`` is past 2**63 - 1, where that sum could wrap, raises
    ``CapacityError`` first.  If
    ``_integer_dims`` accepts it, the rule is integral with those exact dims.
    Otherwise the dims are Rayleigh quotients ``(N_i d).d / d.d`` that must pass
    ``|dims_i d_j - sum_k N[i,j,k] d_k| <= FP_TOLERANCE * (1 + dims_i) * d_j``.
    By Collatz-Wielandt and that bound at ``j = 0``, ``d_i`` is then within
    ``2 * FP_TOLERANCE * (1 + dims_i)`` of its spectral radius, under 1/2 below
    ``FP_DIM_CAP``, so no integer dim was missed; a larger dim raises
    ``CapacityError``.  Weakly integral is integral on the adjoint sub-rule:
    ``d_x**2 = sum_c N[x, dual x, c] d_c``, and weakly integral fusion
    categories have ``d_x**2`` in Z (Etingof-Nikshych-Ostrik, Prop. 8.27).
    """
    from .nilpotency import adjoint_subrule  # nilpotency imports this module

    threshold = FP_TOLERANCE * 1e-2
    N = rule.tensor
    r = N.shape[0]
    # validate refuses these first; the dtype alone bounds int8, int16 and int32 cubes
    if r * int(np.iinfo(N.dtype).max) > 2**63 - 1 and r * int(N.max()) > 2**63 - 1:
        raise CapacityError(f"sum_i N_i needs rank * max(N) <= 2**63 - 1; this rank-{r} "
                            f"tensor has max entry {int(N.max())}")
    M = N.sum(axis=0)
    top = int(M.max())
    _, resid, _, v = _kernels.power_radius(M.astype(np.float64), threshold, POWER_ITERATION_CAP)
    with np.errstate(all="ignore"):
        d = v / v[0]
    if resid > threshold or not np.all(np.isfinite(d) & (d > 0)):
        raise NumericalError(
            f"power iteration on sum_i N_i found no positive Perron vector "
            f"(eigen-residual {resid:.3e})",
            residual=float(resid),
        )
    m = _integer_dims(N, d, top)
    if m is not None:
        dims = m.astype(np.float64)  # exact; in float the sum of squares cannot wrap
        return FPDimData(tuple(dims.tolist()), float(dims.dot(dims)), True, True)
    # a tiny Perron entry can overflow the products below or underflow the
    # bound to 0, so the bound must be finite and hold; NaN fails it too
    with np.errstate(all="ignore"):
        T = np.einsum("ijk,k->ij", N, d)
        dims = T.dot(d) / d.dot(d)
        residual = np.abs(np.outer(dims, d) - T)
        bound = FP_TOLERANCE * np.outer(1.0 + dims, d)
        failed = ~(np.isfinite(bound) & (residual <= bound))
        if failed.any():
            raise NumericalError(
                "fusion-matrix spectral radii fail the multiplicativity residual bound",
                residual=float((residual[failed] / bound[failed]).max() * FP_TOLERANCE),
            )
    if dims.max() >= FP_DIM_CAP:
        raise CapacityError(f"FP dimension {dims.max():.8g} is 2**17 or more, past which "
                            "rounding could miss an integer")
    ad = np.array(adjoint_subrule(rule).members)
    weak = ad.size < N.shape[0] and _integer_dims(N[np.ix_(ad, ad, ad)], d[ad], top) is not None
    return FPDimData(tuple(dims.tolist()), float(np.sum(dims * dims)), False, weak)


def product(a: FusionRule, b: FusionRule) -> FusionRule:
    """Direct product: labels are pairs in row-major order, tensor entries multiply.

    Raises ``CapacityError`` when a product of entries could pass 2**63 - 1.
    """
    top_a, top_b = int(a.tensor.max()), int(b.tensor.max())
    if top_a * top_b > 2**63 - 1:
        raise CapacityError(f"product entries reach {top_a} * {top_b}, above 2**63 - 1")
    ra, rb = a.rank, b.rank
    labels = tuple(f"({la},{lb})" for la in a.labels for lb in b.labels)
    dual = tuple(a.dual[i] * rb + b.dual[p] for i in range(ra) for p in range(rb))
    tensor = np.empty((ra * rb,) * 3, dtype=np.int64)
    # multiplied in int64, whatever the factors' dtypes, so narrow cubes cannot wrap
    out = tensor.reshape(ra, rb, ra, rb, ra, rb)
    np.einsum("ijk,pqr->ipjqkr", a.tensor, b.tensor, out=out, dtype=np.int64)
    tensor.flags.writeable = False  # nothing else holds it, so FusionRule keeps it uncopied
    return FusionRule(labels=labels, dual=dual, tensor=tensor)
