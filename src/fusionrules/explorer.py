"""Exhaustive enumeration of valid fusion rules at small rank and bounded
multiplicity, plus the survey that cross-checks the acyclic/nilpotent
equivalence and weak integrality on everything enumerated.

The search fixes a dual involution, forces the unit and vacuum-channel
entries, groups the remaining tensor cells into orbits on which every valid
rule is constant, and backtracks over orbit values checking each associativity
quadruple as soon as its last cell is assigned.  The orbits are those of the
dual mirror and, with a unique vacuum channel, of Frobenius reciprocity, up to
six cells each (see ``_prepare``).

Relabelling the non-vacuum labels is a symmetry of the problem, and it acts on
the dual maps by conjugation; the class of a dual map is its number of
transposed pairs.  Only one dual map per class is searched, the one with its
pairs first, and its search keeps only tensors that are lex-least under the
relabellings fixing that dual.  Every requested dual map of the class is then
recovered by relabelling those representatives.  Emission order is
lexicographic on the flattened tensor (then on the dual map), independent of
internals.

The survey consumes that labelled stream, but acyclicity, the nilpotency class
and the Frobenius-Perron dimensions are invariant under relabelling, so it
analyses only the first rule of each isomorphism class, keyed by the rule's
canonical form (``_canonical_key``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import permutations
from itertools import product as iproduct
from typing import Iterator

import numpy as np

from . import _kernels
from .acyclicity import is_acyclic
from .core import FusionRule, default_labels, fp_dimensions
from .errors import CapacityError, NumericalError, StructuralError
from .nilpotency import central_series

__all__ = ["EnumSpec", "TheoremSurvey", "enumerate_rules", "survey"]

RANK_CAP = 5
MULT_CAP = 3


@dataclass(frozen=True)
class EnumSpec:
    """Bounds for an enumeration run.

    ``bare_axioms`` drops the imposed single-vacuum-channel condition and
    enumerates under the bare axiom set, where ``N[i,j,0]`` is free for
    ``j != dual(i)``; distinct (dual, tensor) pairs then count separately.
    ``allow_large`` overrides the rank/multiplicity caps.  ``dual_maps``
    restricts the census to the given dual maps, each named at most once.
    """

    rank: int
    max_mult: int = 2
    dual_maps: tuple[tuple[int, ...], ...] | None = None
    limit: int | None = None
    bare_axioms: bool = False
    allow_large: bool = False

    def __post_init__(self):
        if self.rank < 1 or self.max_mult < 0:
            raise CapacityError("rank must be >= 1 and max_mult >= 0")
        if not self.allow_large and (self.rank > RANK_CAP or self.max_mult > MULT_CAP):
            raise CapacityError(
                f"rank <= {RANK_CAP} and max_mult <= {MULT_CAP} unless allow_large is set"
            )
        if self.dual_maps is not None:
            duals = tuple(tuple(int(x) for x in d) for d in self.dual_maps)
            for n, d in enumerate(duals):
                _check_involution(d, self.rank)
                if d in duals[:n]:
                    raise StructuralError(f"dual map {d} is repeated")
            object.__setattr__(self, "dual_maps", duals)
        if self.limit is not None and self.limit < 0:
            raise ValueError("limit must be non-negative")


def _check_involution(dual: tuple[int, ...], rank: int) -> None:
    if len(dual) != rank or sorted(dual) != list(range(rank)):
        raise StructuralError(f"dual map {dual} is not a permutation of 0..{rank - 1}")
    if dual[0] != 0 or any(dual[dual[i]] != i for i in range(rank)):
        raise StructuralError(f"dual map {dual} is not an involution fixing 0")


def _involutions(rank: int) -> list[tuple[int, ...]]:
    """All involutions of 0..rank-1 fixing 0, sorted."""
    return [p for p in _relabellings(rank) if all(p[q] == i for i, q in enumerate(p))]


def _representative(rank: int, pairs: int) -> tuple[int, ...]:
    """The dual map with ``pairs`` transposed pairs, ``1 <-> 2``, ``3 <-> 4``, ...;
    searching the pairs first visits the fewest nodes."""
    dual = list(range(rank))
    for a in range(1, 2 * pairs, 2):
        dual[a], dual[a + 1] = a + 1, a
    return tuple(dual)


def _relabellings(rank: int) -> list[tuple[int, ...]]:
    """Every permutation of 0..rank-1 fixing 0, the identity first."""
    return [(0, *p) for p in permutations(range(1, rank))]


def _conjugate(perm: tuple[int, ...], dual: tuple[int, ...]) -> tuple[int, ...]:
    """The dual map after relabelling ``a`` as ``perm[a]``."""
    out = [0] * len(dual)
    for a, b in enumerate(dual):
        out[perm[a]] = perm[b]
    return tuple(out)


def _cell_map(perm: tuple[int, ...]) -> list[int]:
    """Flat cell indices ``P`` such that relabelling ``a`` as ``perm[a]`` takes
    the flat tensor ``T`` to ``[T[P[c]] for c in cells]``."""
    r = len(perm)
    out = [0] * r**3
    for i, j, k in iproduct(range(r), repeat=3):
        out[(perm[i] * r + perm[j]) * r + perm[k]] = (i * r + j) * r + k
    return out


@dataclass
class _SearchPlan:
    base: list[int]
    orbit_a: list[int]
    orbit_b: list[tuple[int, ...]]
    quads: list[tuple[int, int, int, int, int]]
    symmetries: list[list[int]]


def _prepare(rank: int, dual: tuple[int, ...], bare_axioms: bool) -> _SearchPlan:
    """Forced cells, free orbits, the associativity quadruples, each as
    ``(t, i, j, k, l)`` with ``t`` the orbit whose assignment completes it, and
    the cell map of every relabelling other than the identity that fixes
    ``dual``; the search keeps only the tensors lex-least under those.

    The free orbits are the reciprocity orbits: every valid rule has the dual
    mirror ``N_ij^k = N_{j*i*}^{k*}``, and with the vacuum column forced to
    ``N_ij^0 = [j = i*]`` the quadruple ``(i, j, k*, 0)`` reads
    ``N_ij^k = N_{jk*}^{i*}`` (Frobenius reciprocity).  Under ``bare_axioms``
    ``N_ij^0`` is free, reciprocity does not follow, and the orbits are the
    mirror pairs.  Each orbit is its least cell (``orbit_a``) and the tuple of
    its other cells (``orbit_b``)."""
    r = rank

    def flat(i, j, k):
        return (i * r + j) * r + k

    base = [-1] * r**3
    for j in range(r):
        for k in range(r):
            base[flat(0, j, k)] = base[flat(j, 0, k)] = int(j == k)
    for i in range(1, r):
        if bare_axioms:
            base[flat(i, dual[i], 0)] = 1
        else:
            for j in range(1, r):
                base[flat(i, j, 0)] = int(j == dual[i])

    # the mirror (i, j, k) -> (j*, i*, k*) and reciprocity (i, j, k) -> (j, k*, i*)
    # generate the six images below; both keep i, j, k >= 1, so an orbit of a
    # free cell holds only free cells
    def orbit(i, j, k):
        di, dj, dk = dual[i], dual[j], dual[k]
        cells = {(i, j, k), (dj, di, dk)}
        if not bare_axioms:
            cells |= {(j, dk, di), (dk, i, dj), (k, dj, i), (di, k, j)}
        return sorted(flat(*c) for c in cells)

    pos = [-1] * r**3
    orbit_a: list[int] = []
    orbit_b: list[tuple[int, ...]] = []
    for i, j, k in iproduct(range(r), repeat=3):
        cell = flat(i, j, k)
        if base[cell] == -1 and pos[cell] == -1:
            cells = orbit(i, j, k)
            for c in cells:
                pos[c] = len(orbit_a)
            orbit_a.append(cell)
            orbit_b.append(tuple(cells[1:]))

    # quadruples with any of i, j, k at the vacuum reduce to identities once
    # the unit rows are forced, so only i, j, k >= 1 need checking; their cell
    # (i, j, 1) is never forced, so each has a completing orbit.  The dual
    # mirror (k*, j*, i*, l*) has the mirrored cells, so the same orbit, and
    # the same equation with its sides swapped: only the lesser one is kept.
    quads = []
    for i, j, k in iproduct(range(1, r), repeat=3):
        for l in range(r):
            if (dual[k], dual[j], dual[i], dual[l]) < (i, j, k, l):
                continue
            t = max(
                pos[cell]
                for m in range(r)
                for cell in (flat(i, j, m), flat(m, k, l), flat(j, k, m), flat(i, m, l))
            )
            quads.append((t, i, j, k, l))
    symmetries = [_cell_map(p) for p in _relabellings(r)[1:] if _conjugate(p, dual) == dual]
    return _SearchPlan(
        base=base, orbit_a=orbit_a, orbit_b=orbit_b, quads=quads, symmetries=symmetries
    )


def enumerate_rules(spec: EnumSpec) -> Iterator[FusionRule]:
    """Yield every valid fusion rule within the bounds, each exactly once,
    ordered lexicographically by flattened tensor (then dual map)."""
    r = spec.rank
    duals = spec.dual_maps if spec.dual_maps is not None else _involutions(r)
    classes: dict[int, set[tuple[int, ...]]] = {}
    for dual in duals:
        classes.setdefault(sum(a != b for a, b in enumerate(dual)) // 2, set()).add(dual)

    # every rule of a class is a relabelling of one lex-least representative;
    # relabellings by automorphisms of a rule give it again, so the set dedupes
    found: set[tuple[tuple[int, ...], tuple[int, ...]]] = set()
    for pairs, wanted in sorted(classes.items()):
        rep = _representative(r, pairs)
        plan = _prepare(r, rep, spec.bare_axioms)
        reps = _kernels.search_tensors(plan, spec.max_mult, r)
        for perm in _relabellings(r):
            dual = _conjugate(perm, rep)
            if dual in wanted:
                cells = _cell_map(perm)
                found.update((tuple(map(t.__getitem__, cells)), dual) for t in reps)

    rules = sorted(found)
    if not spec.bare_axioms:
        # the vacuum column pins the dual, so tensors cannot repeat across duals
        assert len({t for t, _ in rules}) == len(rules)

    labels = default_labels(spec.rank)
    for tensor_flat, dual in rules[:spec.limit]:
        tensor = np.array(tensor_flat, dtype=np.int64).reshape(spec.rank, spec.rank, spec.rank)
        yield FusionRule(labels=labels, dual=dual, tensor=tensor)


@dataclass(frozen=True)
class TheoremSurvey:
    """Aggregate verdicts over an enumeration run.

    ``disagreements`` (rules where acyclicity and nilpotency differ) and
    ``weak_integrality_failures`` (acyclic rules with a non-integer global
    dimension) must both be empty; ``class_histogram`` counts nilpotent rules
    by nilpotency class.  ``unique_vacuum_count`` counts the rules with a
    unique vacuum channel (``N[i,j,0] == 0`` for ``j != dual(i)``); it equals
    ``total`` unless the spec has ``bare_axioms``.
    """

    total: int
    unique_vacuum_count: int
    acyclic_count: int
    nilpotent_count: int
    disagreements: tuple[FusionRule, ...]
    weak_integrality_failures: tuple[FusionRule, ...]
    class_histogram: dict[int, int] = field(default_factory=dict)

    @property
    def clean(self) -> bool:
        return not self.disagreements and not self.weak_integrality_failures


def _canonical_index(rank: int) -> np.ndarray:
    """Gather indices, one row per relabelling fixing 0, that take the flat
    tensor followed by the flat dual matrix (``D[a, dual(a)] = 1``) to their
    relabelled images; see ``_canonical_key``."""
    cells = np.array([_cell_map(p) for p in _relabellings(rank)], dtype=np.intp)
    # the cells (i, j, 0) map among themselves, so the pair map is their column
    return np.hstack([cells, cells[:, ::rank] // rank + rank**3])


def _canonical_key(rule: FusionRule, index: np.ndarray) -> bytes:
    """The least of the rule's relabelled (tensor, dual) rows, as bytes: equal
    for two rules iff one is a relabelling of the other.  The dual is part of
    the row because under bare axioms the tensor does not determine it."""
    r = rule.rank
    flat = np.zeros(r**3 + r * r, dtype=np.int64)
    flat[:r**3] = rule.tensor.ravel()
    flat[r**3 + r * np.arange(r) + np.asarray(rule.dual)] = 1
    rows = flat[index]
    return min(rows.view(np.dtype((np.void, rows.shape[1] * 8))).ravel().tolist())


def _verdicts(rule: FusionRule) -> tuple[bool, bool, int | None, bool]:
    """``(acyclic, nilpotent, nilpotency_class, weakly_integral)`` of a rule."""
    acyclic = is_acyclic(rule)
    series = central_series(rule)
    try:
        dims = fp_dimensions(rule)
    except NumericalError as exc:
        exc.rule = rule
        raise
    return acyclic, series.nilpotent, series.nilpotency_class, dims.is_weakly_integral


def survey(spec: EnumSpec) -> TheoremSurvey:
    """Cross-check acyclicity against nilpotency, and weak integrality, over
    every rule of the census.

    Every labelled rule of ``enumerate_rules(spec)`` is counted and, where it
    fails a check, listed.  The analyses run once per isomorphism class, on
    the class's first rule in stream order, and every later relabelling
    shares its verdicts.  A ``NumericalError`` carries that first rule as
    ``exc.rule``."""
    index = _canonical_index(spec.rank)
    verdicts: dict[bytes, tuple[bool, bool, int | None, bool]] = {}
    total = 0
    unique_vacuum_count = 0
    acyclic_count = 0
    nilpotent_count = 0
    disagreements = []
    failures = []
    histogram: dict[int, int] = {}
    for rule in enumerate_rules(spec):
        total += 1
        # N[i, dual(i), 0] == 1 is forced, so a unique channel leaves rank nonzeros
        unique_vacuum_count += bool(np.count_nonzero(rule.tensor[:, :, 0]) == rule.rank)
        key = _canonical_key(rule, index)
        if key not in verdicts:
            verdicts[key] = _verdicts(rule)
        acyclic, nilpotent, c, weakly_integral = verdicts[key]
        acyclic_count += acyclic
        nilpotent_count += nilpotent
        if acyclic != nilpotent:
            disagreements.append(rule)
        if nilpotent:
            histogram[c] = histogram.get(c, 0) + 1
        if acyclic and not weakly_integral:
            failures.append(rule)
    return TheoremSurvey(
        total=total,
        unique_vacuum_count=unique_vacuum_count,
        acyclic_count=acyclic_count,
        nilpotent_count=nilpotent_count,
        disagreements=tuple(disagreements),
        weak_integrality_failures=tuple(failures),
        class_histogram=histogram,
    )
