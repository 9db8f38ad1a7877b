"""Constructors for concrete fusion rules: pointed rules from groups, the
SU(2) level-k family, named fixtures, and Drinfeld doubles of finite groups.
"""

from __future__ import annotations

import numpy as np

from .core import FusionRule, _narrowest_int
from .errors import CapacityError, UnknownFixtureError
from .groups import FiniteGroup, _characters, _field

__all__ = [
    "pointed",
    "su2k",
    "named_fixture",
    "fixture_names",
    "drinfeld_double",
]

# |G|**2 < 2**15 up to here, so every multiplicity of the double fits int16
_INT16_ORDER_LIMIT = 181
# D(Heis(5)) has rank 745; rank <= |G|**2 for any G.  At this rank the build
# holds a 0.90 GiB int16 cube and its 0.45 GiB int8 copy
_DOUBLE_RANK_LIMIT = 28**2  # the rank of D(Z28)


def pointed(group: FiniteGroup) -> FusionRule:
    """The abelian (single-outcome) fusion rule of a finite group."""
    n = group.order
    tensor = np.zeros((n, n, n), dtype=np.int64)
    idx = np.arange(n)
    tensor[idx[:, None], idx, group.table] = 1
    tensor.flags.writeable = False  # nothing else holds it, so FusionRule keeps it uncopied
    labels = ("1",) + tuple(f"g{i}" for i in range(1, n))
    return FusionRule(labels=labels, dual=group.inverses, tensor=tensor)


def su2k(k: int) -> FusionRule:
    """SU(2) level-k fusion: rank k+1 self-dual labels given by doubled spins.

    ``N[a,b,c] = 1`` iff ``a+b+c`` is even and ``|a-b| <= c <= min(a+b, 2k-a-b)``.
    """
    if k < 1:
        raise ValueError("level k must be >= 1")
    r = k + 1
    a, b, c = np.indices((r, r, r), sparse=True)  # open grids, not three rank**3 arrays
    allowed = ((a + b + c) % 2 == 0) & (abs(a - b) <= c) & (c <= np.minimum(a + b, 2 * k - a - b))
    labels = tuple(str(a // 2) if a % 2 == 0 else f"{a}/2" for a in range(r))
    tensor = allowed.astype(np.int64)
    tensor.flags.writeable = False  # nothing else holds it, so FusionRule keeps it uncopied
    return FusionRule(labels=labels, dual=tuple(range(r)), tensor=tensor)


def _from_products(labels, products) -> FusionRule:
    """Build a commutative rule from ``{(i, j): outcomes}`` given for ``i <= j``
    (vacuum row omitted; every label self-dual)."""
    r = len(labels)
    tensor = np.zeros((r, r, r), dtype=np.int64)
    for a in range(r):
        tensor[0, a, a] = 1
        if a:
            tensor[a, 0, a] = 1
    for (i, j), outcomes in products.items():
        for k in outcomes:
            tensor[i, j, k] = 1
            tensor[j, i, k] = 1
    tensor.flags.writeable = False  # nothing else holds it, so FusionRule keeps it uncopied
    return FusionRule(labels=tuple(labels), dual=tuple(range(r)), tensor=tensor)


# Each fixture as (labels, products for i <= j); every label is self-dual.
# SO(8) level 2 is four invertibles (vacuum and three bosons) plus seven
# dimension-2 objects, multiplicity-free; tests/oracles.py::so8_level2_tensor
# rebuilds its tensor by the affine Verlinde formula.
_FIXTURES = {
    "trivial": (["1"], {}),
    "ising": (["1", "sigma", "psi"], {(1, 1): (0, 2), (1, 2): (1,), (2, 2): (0,)}),
    "fibonacci": (["1", "tau"], {(1, 1): (0, 1)}),
    "toric": (
        ["1", "e", "m", "f"],
        {(1, 1): (0,), (1, 2): (3,), (1, 3): (2,), (2, 2): (0,), (2, 3): (1,), (3, 3): (0,)},
    ),
    "so8_2": (
        ["1", "b1", "b2", "b1b2", "v", "s", "c", "ad", "vs", "vc", "sc"],
        {
            (1, 1): (0,), (1, 2): (3,), (1, 3): (2,), (1, 4): (4,), (1, 5): (9,),
            (1, 6): (8,), (1, 7): (7,), (1, 8): (6,), (1, 9): (5,), (1, 10): (10,),
            (2, 2): (0,), (2, 3): (1,), (2, 4): (10,), (2, 5): (5,), (2, 6): (8,),
            (2, 7): (7,), (2, 8): (6,), (2, 9): (9,), (2, 10): (4,),
            (3, 3): (0,), (3, 4): (10,), (3, 5): (9,), (3, 6): (6,), (3, 7): (7,),
            (3, 8): (8,), (3, 9): (5,), (3, 10): (4,),
            (4, 4): (0, 1, 7), (4, 5): (6, 8), (4, 6): (5, 9), (4, 7): (4, 10),
            (4, 8): (5, 9), (4, 9): (6, 8), (4, 10): (2, 3, 7),
            (5, 5): (0, 2, 7), (5, 6): (4, 10), (5, 7): (5, 9), (5, 8): (4, 10),
            (5, 9): (1, 3, 7), (5, 10): (6, 8),
            (6, 6): (0, 3, 7), (6, 7): (6, 8), (6, 8): (1, 2, 7), (6, 9): (4, 10),
            (6, 10): (5, 9),
            (7, 7): (0, 1, 2, 3), (7, 8): (6, 8), (7, 9): (5, 9), (7, 10): (4, 10),
            (8, 8): (0, 3, 7), (8, 9): (4, 10), (8, 10): (5, 9),
            (9, 9): (0, 2, 7), (9, 10): (6, 8),
            (10, 10): (0, 1, 7),
        },
    ),
}


def fixture_names() -> tuple[str, ...]:
    return tuple(sorted(_FIXTURES))


def named_fixture(name: str) -> FusionRule:
    try:
        labels, products = _FIXTURES[name.lower()]
    except KeyError:
        raise UnknownFixtureError(name, _FIXTURES) from None
    return _from_products(labels, products)


def drinfeld_double(group: FiniteGroup) -> FusionRule:
    """Fusion rule of the quantum double of a finite group, computed exactly
    in the prime field F_p of :func:`groups._field`.

    Simple labels are pairs (conjugacy class, irreducible character of the
    representative's centralizer), grouped by class.  Each simple has a
    character ``theta[g, h]`` on commuting pairs, supported on the rows ``g``
    of its class; class ``c`` keeps its block mod p as a ``(k_c, |C_c|, n)``
    array.  Tensor products convolve these characters in ``g``, and
    multiplicities are the inner product over commuting pairs, with
    ``conj theta[g, h] = theta[g, h**-1]``.  Because everything is invariant
    under simultaneous conjugation, the inner product over ``g in C_c`` is
    ``|C_c|`` times its value at the representative of ``c``, so for each
    class pair ``(a, b)`` and each class ``c`` meeting ``C_a C_b`` the block
    ``N[X in a, Y in b, Z in c]`` is one ``(k_a k_b, m) @ (m, k_c)`` product
    over the ``m`` elements of the centralizer of that representative.

    Each residue is the multiplicity itself: ``N[X, Y, Z] <= d_X d_Y <=
    |G|**2 < p``.  The int16 tensor holds that up to order 181; larger groups
    are refused at once, and doubles of rank above 784 before the cube.  The
    assembled cube is narrowed once to the narrowest signed dtype that holds
    its largest entry, int8 up to 127 (D(S5)'s largest is 5), and handed to
    ``FusionRule`` uncopied.
    """
    n = group.order
    if n > _INT16_ORDER_LIMIT:
        raise CapacityError(f"group order {n} exceeds the cap {_INT16_ORDER_LIMIT}")
    e, p = _field(group)
    table = group.table
    inv = np.array(group.inverses)
    classes = [np.array(cls) for cls in group.conjugacy_classes]
    class_of = np.empty(n, dtype=np.int64)
    slot = np.empty(n, dtype=np.int64)  # position of each element within its class
    for c, cls in enumerate(classes):
        class_of[cls] = c
        slot[cls] = np.arange(len(cls))

    tables = {}  # centralizer element set -> (characters mod p, class index per element)
    centralizers = []
    blocks = []
    weighted = []  # per class: conj theta_Z(rep, h) * |C_c| / |G|, shaped (m, k_c)
    names = []
    for cls in classes:
        rep = int(cls[0])
        cz_elements = group.centralizer_elements(rep)
        cz = np.array(cz_elements)
        if cz_elements not in tables:
            cz_classes, _, rows, _ = _characters(group.subgroup(cz_elements), e, p)
            cz_class = np.full(n, -1, dtype=np.int64)
            for idx, members in enumerate(cz_classes):
                cz_class[cz[list(members)]] = idx
            tables[cz_elements] = rows, cz_class
        rows, cz_class = tables[cz_elements]
        # x[i] conjugates rep to cls[i]; u[i, h] = x^-1 h x lies in the
        # centralizer exactly when h commutes with cls[i]
        x = np.argmax(table[table[:, rep], inv][:, None] == cls[None, :], axis=0)
        u = table[table[inv[x]], x[:, None]]
        local = cz_class[u]
        blocks.append(np.where(local >= 0, rows[:, local], 0))
        weighted.append(blocks[-1][:, 0, inv[cz]].T * (len(cls) * pow(n, -1, p) % p) % p)
        centralizers.append(cz)
        names.extend(f"({rep},{r})" for r in range(len(rows)))

    offsets = np.cumsum([0] + [len(b) for b in blocks])
    if offsets[-1] > _DOUBLE_RANK_LIMIT:
        raise CapacityError(f"double of rank {offsets[-1]} exceeds the rank cap {_DOUBLE_RANK_LIMIT}")
    span = [slice(lo, hi) for lo, hi in zip(offsets, offsets[1:])]
    tensor = np.zeros((offsets[-1],) * 3, dtype=np.int16)
    for a, ca in enumerate(classes):
        for b, cb in enumerate(classes):
            for c in np.unique(class_of[table[np.ix_(ca, cb)]]):
                rep = classes[c][0]
                cz = centralizers[c]
                g1 = ca[class_of[table[inv[ca], rep]] == b]  # g1 in C_a with g1^-1 rep in C_b
                g2 = table[inv[g1], rep]
                left = blocks[a][:, slot[g1][:, None], cz]
                right = blocks[b][:, slot[g2][:, None], cz]
                conv = np.einsum("xph,yph->xyh", left, right) % p
                raw = conv.reshape(-1, len(cz)) @ weighted[c] % p
                tensor[span[a], span[b], span[c]] = raw.reshape(len(left), len(right), -1)

    tensor = tensor.astype(_narrowest_int(int(tensor.max())), copy=False)
    tensor.flags.writeable = False
    dual = np.argmax(tensor[:, :, 0], axis=1)
    return FusionRule(labels=tuple(names), dual=tuple(dual.tolist()), tensor=tensor)
