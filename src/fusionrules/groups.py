"""Finite groups as Cayley tables: conjugacy classes, centralizers, character
tables, and nilpotency via the lower central series.

Everything works from the multiplication table alone, with index 0 as the
identity.  The built-in catalogue covers nilpotent and non-nilpotent families
at desk scale: cyclic groups, Z2xZ2, S3, D4, D5, Q8, A4, plus a direct-product
constructor.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import StructuralError, UnknownFixtureError

__all__ = [
    "FiniteGroup",
    "CharacterTable",
    "character_table",
    "lower_central_series",
    "is_nilpotent",
    "cyclic",
    "dihedral",
    "quaternion8",
    "symmetric",
    "alternating",
    "direct_product",
    "builtin_group",
    "builtin_group_names",
]


@dataclass(frozen=True)
class FiniteGroup:
    """A finite group presented by its Cayley table (identity at index 0)."""

    table: np.ndarray
    name: str = "G"

    def __post_init__(self):
        table = np.asarray(self.table, dtype=np.int64)
        if table.ndim != 2 or table.shape[0] != table.shape[1]:
            raise StructuralError(f"Cayley table must be square, got shape {table.shape}")
        n = table.shape[0]
        if n < 1:
            raise StructuralError("group must have at least the identity")
        if table.min() < 0 or table.max() >= n:
            raise StructuralError("Cayley table entries out of range")
        ident = np.arange(n)
        bad = (np.sort(table, axis=1) != ident).any(1) | (np.sort(table.T, axis=1) != ident).any(1)
        if bad.any():  # the least row or column index that is not a permutation
            raise StructuralError(f"Cayley table is not a Latin square at index {np.argmax(bad)}")
        if not (np.array_equal(table[0], ident) and np.array_equal(table[:, 0], ident)):
            raise StructuralError("index 0 must be a two-sided identity")
        table.flags.writeable = False
        object.__setattr__(self, "table", table)
        if not self._associative():
            raise StructuralError("Cayley table is not associative")

    def _associative(self) -> bool:
        """Light's test over a greedily built generating set: the ``s`` with
        ``(x s) y == x (s y)`` for all ``x, y`` are closed under products, so
        checking the generators checks every element, in ``n**2`` work each."""
        t, generators, members = self.table, [], {0}
        for s in range(self.order):
            if s not in members:
                if not np.array_equal(t[t[:, s], :], t[:, t[s]]):
                    return False
                generators.append(s)
                members = set(self.generated_subgroup(generators))
        return True

    @property
    def order(self) -> int:
        return self.table.shape[0]

    @cached_property
    def inverses(self) -> tuple[int, ...]:
        return tuple(np.argmax(self.table == 0, axis=1).tolist())

    @cached_property
    def conjugacy_classes(self) -> tuple[tuple[int, ...], ...]:
        """Classes sorted by their smallest member, which is the representative."""
        t = self.table
        conj = t[t, np.array(self.inverses)[:, None]]  # [x, g] -> x g x^-1
        seen = np.zeros(self.order, dtype=bool)
        classes = []
        for g in range(self.order):
            if not seen[g]:
                orbit = np.unique(conj[:, g])
                seen[orbit] = True
                classes.append(tuple(orbit.tolist()))
        return tuple(classes)

    def centralizer_elements(self, g: int) -> tuple[int, ...]:
        return tuple(np.flatnonzero(self.table[:, g] == self.table[g]).tolist())

    def generated_subgroup(self, generators) -> tuple[int, ...]:
        """Element set of the subgroup generated by ``generators``.

        Saturates a membership mask under products; in a finite group that
        closure already contains every inverse.
        """
        members = np.zeros(self.order, dtype=bool)
        members[0] = True
        members[np.fromiter(generators, dtype=np.int64)] = True
        size = 0
        while members.sum() > size:
            size = members.sum()
            idx = np.flatnonzero(members)
            members[self.table[np.ix_(idx, idx)]] = True
        return tuple(np.flatnonzero(members).tolist())

    def subgroup(self, elements) -> "FiniteGroup":
        """The subgroup on ``elements`` (must be closed), reindexed 0..m-1.

        Element ``k`` of the result is ``sorted(elements)[k]`` in the parent.
        """
        idx = np.sort(np.fromiter(elements, dtype=np.int64))
        if idx[0] != 0:
            raise StructuralError("subgroup must contain the identity")
        products = self.table[np.ix_(idx, idx)]
        if not np.isin(products, idx).all():
            raise StructuralError("element set is not closed under multiplication")
        return FiniteGroup(table=np.searchsorted(idx, products), name=f"{self.name}-sub{len(idx)}")

    @property
    def is_abelian(self) -> bool:
        return bool(np.array_equal(self.table, self.table.T))

    def __repr__(self):
        return f"FiniteGroup({self.name}, order={self.order})"


def lower_central_series(group: FiniteGroup) -> list[tuple[int, ...]]:
    """[G, [G,G], [G,[G,G]], ...] down to stabilization or the trivial subgroup."""
    t, inv = group.table, np.array(group.inverses)
    series = [tuple(range(group.order))]
    while len(series[-1]) > 1:
        h = np.array(series[-1])
        comms = t[t[inv[:, None], inv[h]], t[:, h]]  # [g, h] -> g^-1 h^-1 g h
        nxt = group.generated_subgroup(comms.ravel())
        if nxt == series[-1]:
            break
        series.append(nxt)
    return series


def is_nilpotent(group: FiniteGroup) -> tuple[bool, int | None]:
    """Nilpotency verdict and class from the lower central series."""
    series = lower_central_series(group)
    if len(series[-1]) == 1:
        return True, len(series) - 1
    return False, None


# --- character tables ---------------------------------------------------------


@dataclass(frozen=True)
class CharacterTable:
    """Irreducible complex characters evaluated on conjugacy classes.

    Rows are irreducibles sorted by ascending degree (the trivial character
    first); columns follow ``classes``, which are sorted by representative.
    """

    classes: tuple[tuple[int, ...], ...]
    table: np.ndarray
    degrees: tuple[int, ...]

    def class_index_of(self, element: int) -> int:
        for n, cls in enumerate(self.classes):
            if element in cls:
                return n
        raise KeyError(element)


def _class_algebra_matrices(group: FiniteGroup):
    classes = group.conjugacy_classes
    k = len(classes)
    class_of = np.empty(group.order, dtype=np.int64)
    for c, cls in enumerate(classes):
        class_of[list(cls)] = c
    # mats[i, l, j] counts the pairs (x in C_i, y in C_j) with xy the representative of C_l
    x, y = np.nonzero(np.isin(group.table, [cls[0] for cls in classes]))
    key = (class_of[x] * k + class_of[group.table[x, y]]) * k + class_of[y]
    return classes, class_of, np.bincount(key, minlength=k**3).reshape(k, k, k)


def _field(group: FiniteGroup) -> tuple[int, int]:
    """The exponent ``e`` of the group and the least prime ``p = 1 (mod e)``
    above ``|G|**2``.  F_p holds the e-th roots of unity, so every character
    value reduces into it, and every multiplicity of the double is below p."""
    n, idx = group.order, np.arange(group.order)
    power, e = idx, 1
    while power.any():
        power, e = group.table[power, idx], e + 1
    p = -(-n * n // e) * e + 1
    while any(p % q == 0 for q in range(2, math.isqrt(p) + 1)):
        p += e
    return e, p


def _characters(group: FiniteGroup, e: int, p: int):
    """Dixon's modular method: the classes, the complex character table, its
    rows mod ``p`` and the degrees, for the ``(e, p)`` that :func:`_field`
    gives this group or a group containing it.

    The central characters ``omega`` are the common left eigenvectors of the
    class-algebra matrices.  A random combination of them whose characteristic
    polynomial has ``k`` simple roots ``lambda_s`` in F_p separates them:
    ``prod_{s != r} (combo - lambda_s)`` has rank one, with rows along the r-th.
    Then ``d**2 = |G| / sum_i omega_i omega_i* / |C_i|`` and
    ``chi = d omega / |C|``, checked against the orthogonality relations mod p.
    Complex values come from the eigenvalue multiplicities
    ``m_j = (1/e) sum_l chi(g**l) z**(-jl)`` of each representative ``g``, where
    the e-th root of unity ``z`` in F_p, the same for every table of one
    ``(e, p)``, stands for ``exp(2 pi i / e)``.  Rows are sorted by degree,
    then by ``(-Re, -Im)`` of each entry rounded to 6 places (the trivial
    character first); the table is real when every character is.
    """
    classes, class_of, mats = _class_algebra_matrices(group)
    k, n = len(classes), group.order
    reps = np.array([cls[0] for cls in classes])
    star = class_of[np.array(group.inverses)[reps]]
    sizes = np.array([len(cls) for cls in classes])
    inv_size = np.array([pow(int(s), -1, p) for s in sizes])
    eye, x = np.eye(k, dtype=np.int64), np.arange(p)
    rng = np.random.default_rng(0)
    while True:
        combo = np.tensordot(rng.integers(0, p, k), mats, axes=1) % p
        # the characteristic polynomial by Faddeev-LeVerrier, evaluated on all of F_p
        values, m = np.ones(p, dtype=np.int64), eye
        for s in range(1, k + 1):
            am = combo @ m % p
            c = -int(np.trace(am)) * pow(s, -1, p) % p
            values = (values * x + c) % p
            m = (am + c * eye) % p
        roots = np.flatnonzero(values == 0)
        if len(roots) == k:
            break
    # row 0 of every prod_{s != r} (combo - lambda_s) at once; it is nonzero at
    # the identity class, where each central idempotent has d**2 / |G|
    omega = np.zeros((k, k), dtype=np.int64)
    omega[:, 0] = 1
    for s, lam in enumerate(roots):
        step = (omega @ combo - lam * omega) % p
        step[s] = omega[s]
        omega = step
    omega = omega * np.array([[pow(int(w), -1, p)] for w in omega[:, 0]]) % p
    norms = (omega * omega[:, star] % p * inv_size % p).sum(axis=1) % p
    degrees = np.array([math.isqrt(n * pow(int(s), -1, p) % p) for s in norms])
    rows = omega * (degrees[:, None] * inv_size % p) % p
    if not np.array_equal((rows * sizes % p) @ rows[:, star].T % p, n * eye):
        raise ArithmeticError(f"character table of {group.name} fails orthogonality mod {p}")

    # an element of order exactly e, which stands for exp(2 pi i / e)
    z = next(z for z in (pow(a, (p - 1) // e, p) for a in range(1, p))
             if len({pow(z, j, p) for j in range(e)}) == e)
    powers = np.zeros((e, k), dtype=np.int64)  # powers[l, i] = reps[i]**l
    for l in range(1, e):
        powers[l] = group.table[powers[l - 1], reps]
    j = np.arange(e)
    dft = np.array([pow(z, t, p) for t in range(e)])[-np.outer(j, j) % e]
    mult = rows[:, class_of[powers]].transpose(0, 2, 1) @ dft % p * pow(e, -1, p) % p
    table = mult @ np.exp(2j * np.pi * j / e)
    if np.array_equal(rows, rows[:, star]):
        table = table.real
    key = np.round(table, 6)
    order = sorted(range(k), key=lambda r: (degrees[r], *zip(-key[r].real, -key[r].imag)))
    return classes, table[order], rows[order], tuple(degrees[order].tolist())


def character_table(group: FiniteGroup) -> CharacterTable:
    """The complex character table, computed exactly by :func:`_characters`."""
    classes, table, _, degrees = _characters(group, *_field(group))
    table.flags.writeable = False
    return CharacterTable(classes=classes, table=table, degrees=degrees)


# --- catalogue -----------------------------------------------------------------


def cyclic(n: int) -> FiniteGroup:
    i = np.arange(n)
    return FiniteGroup(table=(i[:, None] + i[None, :]) % n, name=f"Z{n}")


def dihedral(n: int) -> FiniteGroup:
    """Order 2n; index = rotation + n * flip."""
    size = 2 * n
    table = np.empty((size, size), dtype=np.int64)
    for a1, s1, a2, s2 in itertools.product(range(n), (0, 1), range(n), (0, 1)):
        a = (a2 - a1 if s2 else a1 + a2) % n
        table[a1 + n * s1, a2 + n * s2] = a + n * (s1 ^ s2)
    return FiniteGroup(table=table, name=f"D{n}")


_QUAT_UNITS = {  # (u1, u2) -> (unit, sign flip) for units 1,i,j,k = 0,1,2,3
    (1, 1): (0, 1), (1, 2): (3, 0), (1, 3): (2, 1),
    (2, 1): (3, 1), (2, 2): (0, 1), (2, 3): (1, 0),
    (3, 1): (2, 0), (3, 2): (1, 1), (3, 3): (0, 1),
}


def quaternion8() -> FiniteGroup:
    """Q8 with elements 1,-1,i,-i,j,-j,k,-k encoded as 2*unit + sign."""
    table = np.empty((8, 8), dtype=np.int64)
    for u1, s1, u2, s2 in itertools.product(range(4), (0, 1), range(4), (0, 1)):
        u, extra = _QUAT_UNITS.get((u1, u2), (u1 or u2, 0))
        table[2 * u1 + s1, 2 * u2 + s2] = 2 * u + (s1 ^ s2 ^ extra)
    return FiniteGroup(table=table, name="Q8")


def _perm_group(perms, name: str) -> FiniteGroup:
    perms = sorted(perms)
    where = {p: n for n, p in enumerate(perms)}
    size = len(perms)
    table = np.empty((size, size), dtype=np.int64)
    for a, p in enumerate(perms):
        for b, q in enumerate(perms):
            table[a, b] = where[tuple(p[q[x]] for x in range(len(p)))]
    return FiniteGroup(table=table, name=name)


def symmetric(n: int) -> FiniteGroup:
    return _perm_group(itertools.permutations(range(n)), f"S{n}")


def alternating(n: int) -> FiniteGroup:
    evens = [p for p in itertools.permutations(range(n)) if _perm_sign(p) == 1]
    return _perm_group(evens, f"A{n}")


def _perm_sign(p) -> int:
    sign = 1
    for a in range(len(p)):
        for b in range(a + 1, len(p)):
            if p[a] > p[b]:
                sign = -sign
    return sign


def direct_product(g: FiniteGroup, h: FiniteGroup) -> FiniteGroup:
    ng, nh = g.order, h.order
    # [i1, j1, i2, j2] -> (i1 i2, j1 j2), flattened as i * nh + j on both axes
    table = (g.table[:, None, :, None] * nh + h.table[None, :, None, :]).reshape(ng * nh, ng * nh)
    return FiniteGroup(table=table, name=f"{g.name}x{h.name}")


_BUILTIN = {f"z{n}": (lambda n=n: cyclic(n)) for n in range(1, 17)}
_BUILTIN.update(
    z2xz2=lambda: direct_product(cyclic(2), cyclic(2)),
    s3=lambda: symmetric(3),
    d4=lambda: dihedral(4),
    d5=lambda: dihedral(5),
    q8=quaternion8,
    a4=lambda: alternating(4),
)


def builtin_group_names() -> tuple[str, ...]:
    return tuple(sorted(_BUILTIN))


def builtin_group(name: str) -> FiniteGroup:
    try:
        factory = _BUILTIN[name.lower()]
    except KeyError:
        raise UnknownFixtureError(name, _BUILTIN) from None
    return factory()
