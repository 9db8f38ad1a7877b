import hashlib
import math

import numpy as np
import pytest

from fusionrules import (
    FiniteGroup,
    StructuralError,
    UnknownFixtureError,
    builtin_group,
    builtin_group_names,
    character_table,
    cyclic,
    dihedral,
    direct_product,
    is_nilpotent,
    lower_central_series,
    pointed,
    quaternion8,
    su2k,
)
from fusionrules.groups import _field, alternating, symmetric


class TestFiniteGroup:
    def test_bad_tables_rejected(self):
        with pytest.raises(StructuralError):
            FiniteGroup(table=np.array([[0, 0], [1, 1]]))  # not a Latin square
        with pytest.raises(StructuralError):
            FiniteGroup(table=np.array([[1, 0], [0, 1]]))  # identity not at 0
        with pytest.raises(StructuralError):
            FiniteGroup(table=np.arange(6).reshape(2, 3))
        # Latin square with identity that is not associative (order 5 loop)
        loop = np.array([
            [0, 1, 2, 3, 4],
            [1, 0, 3, 4, 2],
            [2, 4, 0, 1, 3],
            [3, 2, 4, 0, 1],
            [4, 3, 1, 2, 0],
        ])
        with pytest.raises(StructuralError, match="^Cayley table is not associative$"):
            FiniteGroup(table=loop)
        # loop x Z2 with the Z2 factor varying fastest: element 1 is in the
        # nucleus, so the check passes it and its closure and fails at 2
        z2 = np.array([[0, 1], [1, 0]])
        both = loop[:, None, :, None] * 2 + z2[None, :, None, :]
        with pytest.raises(StructuralError, match="^Cayley table is not associative$"):
            FiniteGroup(table=both.reshape(10, 10))

    @pytest.mark.parametrize("cell, index", [((3, 4), 3), ((4, 2), 2)])
    def test_latin_square_message_names_least_index(self, cell, index):
        # one changed cell breaks its row and its column; the lesser index is
        # a row for (3, 4) and a column for (4, 2)
        table = cyclic(5).table.copy()
        table[cell] = (table[cell] + 1) % 5
        with pytest.raises(StructuralError, match=f"^Cayley table is not a Latin square at index {index}$"):
            FiniteGroup(table=table)

    def test_inverses(self):
        g = cyclic(6)
        assert g.inverses == (0, 5, 4, 3, 2, 1)

    def test_conjugacy_classes_s3(self):
        sizes = sorted(len(c) for c in symmetric(3).conjugacy_classes)
        assert sizes == [1, 2, 3]

    def test_conjugacy_classes_q8(self):
        sizes = sorted(len(c) for c in quaternion8().conjugacy_classes)
        assert sizes == [1, 1, 2, 2, 2]

    def test_centralizer_and_subgroup(self):
        g = symmetric(3)
        # centralizer of a 3-cycle is the cyclic subgroup it generates
        three_cycle = next(
            c[0] for c in g.conjugacy_classes if len(c) == 2
        )
        cz = g.centralizer_elements(three_cycle)
        assert len(cz) == 3
        sub = g.subgroup(cz)
        assert sub.order == 3 and sub.is_abelian

    def test_generated_subgroup(self):
        g = symmetric(3)
        assert len(g.generated_subgroup([])) == 1
        assert len(g.generated_subgroup(range(g.order))) == 6

    def test_builtin_catalogue(self):
        names = builtin_group_names()
        assert {"z2", "z16", "z2xz2", "s3", "d4", "d5", "q8", "a4"} <= set(names)
        for name in names:
            g = builtin_group(name)
            assert g.order >= 1
        with pytest.raises(UnknownFixtureError):
            builtin_group("m11")

    def test_direct_product_of_coprime_cyclics_is_cyclic(self):
        g = direct_product(cyclic(2), cyclic(3))
        assert g.order == 6
        orders = set()
        for a in range(6):
            x, n = a, 1
            while x != 0:
                x = g.table[x, a]
                n += 1
            orders.add(n)
        assert 6 in orders  # has an element of order 6


class TestNilpotency:
    @pytest.mark.parametrize(
        "name,expected",
        [
            ("z1", (True, 0)),
            ("z6", (True, 1)),
            ("z2xz2", (True, 1)),
            ("d4", (True, 2)),
            ("q8", (True, 2)),
            ("s3", (False, None)),
            ("d5", (False, None)),
            ("a4", (False, None)),
        ],
    )
    def test_catalogue_verdicts(self, name, expected):
        assert is_nilpotent(builtin_group(name)) == expected

    def test_s3_series_stabilizes_at_a3(self):
        series = lower_central_series(symmetric(3))
        assert len(series[-1]) == 3  # the 3-cycle subgroup

    def test_d4_series(self):
        series = lower_central_series(dihedral(4))
        assert [len(s) for s in series] == [8, 2, 1]

    def test_s4_not_nilpotent(self):
        assert is_nilpotent(symmetric(4)) == (False, None)

    def test_dihedral_two_power_nilpotent(self):
        assert is_nilpotent(dihedral(8)) == (True, 3)
        assert is_nilpotent(dihedral(6)) == (False, None)


class TestCharacterTable:
    def test_z2_exact(self):
        ct = character_table(cyclic(2))
        assert ct.degrees == (1, 1)
        assert np.allclose(ct.table, [[1, 1], [1, -1]], atol=1e-9)

    def test_s3_degrees(self):
        assert character_table(symmetric(3)).degrees == (1, 1, 2)

    def test_q8_degrees(self):
        assert character_table(quaternion8()).degrees == (1, 1, 1, 1, 2)

    def test_a4_degrees(self):
        assert character_table(alternating(4)).degrees == (1, 1, 1, 3)

    @pytest.mark.parametrize("name", ["z2", "z3", "z5", "z8", "z12", "z2xz2", "s3", "d4", "d5", "q8", "a4"])
    def test_invariants(self, name):
        g = builtin_group(name)
        ct = character_table(g)
        k = len(ct.classes)
        assert sum(d * d for d in ct.degrees) == g.order
        assert list(ct.degrees) == sorted(ct.degrees)
        assert [c[0] for c in ct.classes] == sorted(c[0] for c in ct.classes)
        # trivial character first
        assert np.allclose(ct.table[0], np.ones(k), atol=1e-8)
        # row orthogonality at 1e-6
        sizes = np.array([len(c) for c in ct.classes], dtype=float)
        gram = (ct.table * sizes) @ ct.table.conj().T
        assert np.abs(gram - g.order * np.eye(k)).max() <= 1e-6 * g.order

    def test_column_orthogonality(self):
        g = symmetric(3)
        ct = character_table(g)
        for a in range(3):
            for b in range(3):
                inner = np.vdot(ct.table[:, a], ct.table[:, b])
                expected = g.order / len(ct.classes[a]) if a == b else 0.0
                assert abs(inner - expected) < 1e-6

    def test_deterministic(self):
        a = character_table(quaternion8())
        b = character_table(quaternion8())
        assert np.array_equal(a.table, b.table)

    def test_a5_golden_ratio(self):
        # the first table with irrational values: the 5-cycles split into two classes
        ct = character_table(alternating(5))
        assert ct.degrees == (1, 3, 3, 4, 5)
        assert [len(c) for c in ct.classes] == [1, 20, 15, 12, 12]
        phi, psi = (1 + 5**0.5) / 2, (1 - 5**0.5) / 2
        expected = [[1, 1, 1, 1, 1], [3, 0, -1, phi, psi], [3, 0, -1, psi, phi], [4, 1, 0, -1, -1], [5, -1, 1, 0, 0]]
        assert ct.table.dtype == np.float64
        assert np.abs(ct.table - expected).max() < 1e-12

    def test_class_index_of(self):
        ct = character_table(symmetric(3))
        for n, cls in enumerate(ct.classes):
            for g in cls:
                assert ct.class_index_of(g) == n


class TestField:
    @staticmethod
    def _check(g, e):
        n = g.order
        assert _field(g) == (e, _field(g)[1])
        p = _field(g)[1]
        primes = [q for q in range(n * n + 1, p + 1) if (q - 1) % e == 0 and all(q % d for d in range(2, math.isqrt(q) + 1))]
        assert primes == [p], n  # p is prime, 1 mod e, above n**2, and the least such
        assert n * p * p < 2**63  # every sum of the character and double arithmetic fits int64

    def test_cyclic_orders_up_to_the_double_limit(self):
        for n in range(1, 182):
            self._check(cyclic(n), n)

    def test_builtin_groups(self):
        exponents = {"z2xz2": 2, "s3": 6, "d4": 4, "d5": 10, "q8": 4, "a4": 6}
        for name in builtin_group_names():
            g = builtin_group(name)
            self._check(g, exponents.get(name, g.order))


def _relabelled(group: FiniteGroup, seed: int) -> FiniteGroup:
    """The same group with its non-identity elements permuted by a seeded shuffle."""
    perm = np.concatenate([[0], 1 + np.random.default_rng(seed).permutation(group.order - 1)])
    table = np.empty_like(group.table)
    table[np.ix_(perm, perm)] = perm[group.table]
    return FiniteGroup(table=table, name=f"{group.name}-relabelled")


def _parity_groups():
    groups = {name: builtin_group(name) for name in builtin_group_names()}
    groups["s4"] = symmetric(4)
    groups["q8xz3"] = direct_product(quaternion8(), cyclic(3))
    groups["s3xz4"] = direct_product(symmetric(3), cyclic(4))
    for seed, name in enumerate(sorted(groups)):
        groups[f"{name}~"] = _relabelled(groups[name], seed)
    return groups


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(f"{part.dtype}{part.shape}".encode())
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(repr(part).encode())
    return h.hexdigest()


def _group_layer_digest(g: FiniteGroup) -> str:
    centralizers = tuple(g.centralizer_elements(x) for x in range(g.order))
    subgroup_tables = [g.subgroup(cz).table for cz in sorted(set(centralizers))]
    chars = np.round(character_table(g).table, 9) + 0.0
    return _digest(
        g.inverses,
        g.conjugacy_classes,
        centralizers,
        lower_central_series(g),
        is_nilpotent(g),
        *subgroup_tables,
        chars,
        pointed(g).tensor,
    )


# sha256 over inverses, classes, centralizers, lower central series, nilpotency
# verdict, centralizer subgroup tables, rounded character table and pointed
# tensor, recorded from the element-at-a-time group layer ("~" = relabelled)
GROUP_LAYER_HASHES = {
    "a4": "b1fce1e4c42edd23296993e9bd58ac12d9f40e881552c7fa72bcde7a3aa198ad",
    "a4~": "78a6d7217a984feb035328e3dbd4119071821e8ee5883a52216dfae7ca4ebc64",
    "d4": "5b3982c48524624b8437cc4e1c987f1657eefcc7c454866a2034e560c3886d31",
    "d4~": "497856e3089b5bfe546b912389e9c39151da3bec46452a888546512c3b81c10a",
    "d5": "100b014c5b460364c0190bdc50a0ec206fcfef0bcdcfe11721b54c7aa1776915",
    "d5~": "d50c6c30707f22b4546a429c033a0cf5b44cd0be8d8de3696b42754cc703a58b",
    "q8": "473b450434211f1a31632e2fcf556b90260acaf61e2463183809d95ce5714255",
    "q8xz3": "671532f01e8dd4521cda22841eca86b682cb43da2d48d47ea3a7a67694b75ebe",
    "q8xz3~": "87861a4b2aef25f1ebfa90db2dd4081c343837800c125b5fada112357f4a28ae",
    "q8~": "bd7dafc76f55fbb157b561910b3956fd9d9419bfded751dd08ee51fe99638da9",
    "s3": "49cab774458650c9f58f7597101c5e8d07af59f4c0ef5bf7ab5b8a0cb8647402",
    "s3xz4": "8743e3fd571b760f9fa85500866e3bbc11dfa14925b10b4f9b713d572b0489af",
    "s3xz4~": "5607d8d6b5ed1a76316030d12d91cd11621c40d6c2df61d29580bec1a8b42db7",
    "s3~": "8455068853ff7178369e4ac8a1180701efda8cec2ae9883edb926bc5abf4e515",
    "s4": "a00c311011f5c0b55144e61a4ff7ac579b07c8ddbef5822d563eb4c208766054",
    "s4~": "e190823fb9d9cdabb7dc5faee74d0cf16eda5980693eafb1c74fff2b1bc98133",
    "z1": "d9ba81015c0293e145d0d0d6b4dbd2e74e47acf03e81d8d44337784cd9c33eb1",
    "z10": "40ec7c27ba8b0f75305932862fbb64a85746caba35a2280b8a67e91ebdb86948",
    "z10~": "21eabef12f9267dec32445ed5d11ef3d21ce9f4dd69ff4c476f3fc6d6d1aafc4",
    "z11": "2666556973c44a746373dc2c0abda10f7ad75a7555f09a1ca89b8c3b190c0941",
    "z11~": "fe486d107eb3bb3406b3d824de6741023ed0224b7ffed87b38612ab470ba397f",
    "z12": "69a3f60d0628bca443d0b1117be3600ae21c713f62ade64f9113087e92bb4208",
    "z12~": "bb522df8130bb645856a532ff1a9d0be29e724d24399cc6426fb228443cf3eca",
    "z13": "102e2e07fd9d185df16607771361913880d795bb926357d0eef1311b1fc6f7ae",
    "z13~": "ff687806336f64094e3ce3f23ad1ae03578e9dfc6295811337db233b74adc68f",
    "z14": "83bd423b2b3da7e107bd53679c2d5e9bc8769d3fb5b07b404cb7ccf73a21eb55",
    "z14~": "75889b6dbb264766bf711686d63346a7133e154c72eb08ea30cd086e958ec894",
    "z15": "21c17eccfa8e74cf362de755d2eb36636a97535be24dea86dead3cfd792bbc6d",
    "z15~": "9bcf297e044923a54188b52dad73b4e4bfa75c2e820438f4e33280696e58c8cd",
    "z16": "14dc00eae720655994f01f82cd6a8a2114de0c6465d57b3374aaaccf34eba637",
    "z16~": "84c79822fa6f0de08afe0e0309b65edb147fe0005c9780d75a96da828848e511",
    "z1~": "d9ba81015c0293e145d0d0d6b4dbd2e74e47acf03e81d8d44337784cd9c33eb1",
    "z2": "7396040c59ad5766d4404bd9a33f52b78659e19a3bc5191b4d67444f8191d370",
    "z2xz2": "0d5b5e587fcb7f6dfc265a44396e073c0d4ea2bfa5faa24486943015680c476f",
    "z2xz2~": "0d5b5e587fcb7f6dfc265a44396e073c0d4ea2bfa5faa24486943015680c476f",
    "z2~": "7396040c59ad5766d4404bd9a33f52b78659e19a3bc5191b4d67444f8191d370",
    "z3": "4a2d81be86c414f1040cd455ab9967f828f6aa97f5eb75c0ecaa4c91dc2d9c9f",
    "z3~": "4a2d81be86c414f1040cd455ab9967f828f6aa97f5eb75c0ecaa4c91dc2d9c9f",
    "z4": "dd1853e6017dcf61fb89a93b01400f73c9ed3e25a3bb66fdb0398d428a191d39",
    "z4~": "dd1853e6017dcf61fb89a93b01400f73c9ed3e25a3bb66fdb0398d428a191d39",
    "z5": "58320be26e01a639bacd502f9bd8b8c11c1ddecb22086a8db022873190009635",
    "z5~": "cac9fe07884a7aa51419a3fb42fca01d8a8ad9779646a31e70def5f1f98d77aa",
    "z6": "cea6386f81993e6d6eedac051f9e3a37c340c6b0872a16ff2a2509de0a1ec1c6",
    "z6~": "9a2adac49f173267d84c45482e617b8966f9a42be362c29701f429fedacf762c",
    "z7": "21593daeb130fc44bd222be86a135d75337efd21c4ac6036fa62ff1dcf8fb313",
    "z7~": "c720362184cd5fa763dd50f4327a1f53ae13cfeac46742f1914de1a2fd13da60",
    "z8": "db2161e6a2ac07032ed102c37005762c954aedd09cbcff96d56ff4bb6a96b6e7",
    "z8~": "b834a3393c2616339efcc73d546cc8fed3d589141d7e9649b07eae1e5a283a94",
    "z9": "3f4394b332aa43d46d1ac70fd588406ae150774672505c3bee20674342de7784",
    "z9~": "c1d7909aa9eed8ea065c4aa2a2c4cee4caa09f9fae63e65018652992114e8ae5",
}

# sha256 over the su2k(1..60) tensors, recorded from the cell-by-cell loop
SU2K_HASH = "11b442f44e1428d02a689ebe1a69c7d04aa57cf123a0caeaa7b972b42df4014f"


class TestFrozenParity:
    def test_group_layer(self):
        digests = {name: _group_layer_digest(g) for name, g in _parity_groups().items()}
        assert digests == GROUP_LAYER_HASHES

    def test_su2k_tensors(self):
        assert _digest(*(su2k(k).tensor for k in range(1, 61))) == SU2K_HASH

    def test_subgroup_errors(self):
        g = symmetric(3)
        with pytest.raises(StructuralError, match=r"^subgroup must contain the identity$"):
            g.subgroup([1, 2])
        with pytest.raises(StructuralError, match=r"^element set is not closed under multiplication$"):
            g.subgroup([0, 1, 2])
