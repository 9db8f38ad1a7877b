import hashlib
import inspect
import json
import tracemalloc

import numpy as np
import pytest

from fusionrules import (
    CapacityError,
    UnknownFixtureError,
    adjoint_subrule,
    builtin_group,
    builtin_group_names,
    central_series,
    drinfeld_double,
    fixture_names,
    fp_dimensions,
    is_acyclic,
    is_nilpotent,
    named_fixture,
    pointed,
    su2k,
    validate,
)
from fusionrules.groups import alternating, cyclic, dihedral, direct_product, quaternion8, symmetric

from oracles import commuting_pair_orbit_count, double_by_verlinde, so8_level2_tensor, verlinde_su2k

# sha256 of json([labels, dual]) + tensor bytes for the double of every
# built-in group and of S4, recorded from the per-pair convolution that the
# class-blocked construction replaced
DOUBLE_HASHES = {
    "a4": "c0f4bd796df00db0234a80500c31e91f4cbdebfbccffdfbc0e144ed7560fbed8",
    "d4": "6ccbcabe0235bc2cd4319e54c2cc3ca8b15e2ccae5607438cd4b902721ceecf6",
    "d5": "1db79fbe9b01134691e13aca659e90f70b74fea91fb73da81ad1b42cde807160",
    "q8": "5c828ab130c6c806cea3d0187a63165051265634624e435a4ceef645b37702ee",
    "s3": "7a8d82edbe93ce89a50ec7c200926bac7587ce3b5ec30aa032e1f84ad077b317",
    "s4": "b1d5ab3578673b27a3a9bfafe0ec945f3f14bb132f31ba78a44bcac6a5800f5e",
    "z1": "8172e1d2ff24f747d9d12129408348f0c1a9ddcb697b6c12880d8aad06860f72",
    "z10": "5caac3f65fc88ddff00c788ca2b24af428bffc41ec17a3804c9c6d26fd4940f7",
    "z11": "d8c691145bc4f164f4c56a971bdf9584fc3bbf12831e400b40a21e1f1acc6033",
    "z12": "de94356a64da5a2816e5b6bea3a45287e67d17338245674bd0de2919cd3cc122",
    "z13": "31592c6c78e504875aadbd0f5726d3ca5955a16b7c0399476c816a7a3f6547d0",
    "z14": "711c16576e3ac9a8f799bf178cba46683fc5912869e2d2a2ff82d90969e4cd23",
    "z15": "3c762b3eb3ff133b4cdd6363d6389259c0c5328fed821f6cbd42e4f731a8956d",
    "z16": "7f5d3a525d3becc495cdd5f133cff2122c919891a401d39e35e3a3b2012c0b9a",
    "z2": "e52c542be782e6d092ce0b5aa95e1b00aa74c133da65b45cb48eb9cba9740e68",
    "z2xz2": "04dbbdd18e48f11c1e61ccea2a948b541d35812c6dc3a701353f451480a3faff",
    "z3": "559cf091507d4d432f698332b81fcecbdbaf34260e01b7b9ce12fb28c940eb3c",
    "z4": "179773fa740ab030b840f5370a45bcaa673e2e7dd700547a41a5517cfee9f44b",
    "z5": "0fa39cdc105a89c9739dae7827e3cfc4dbed5d807a7ecc94e95692c3ec847655",
    "z6": "54aacfb195b529afc16b05104ea98dfe768ed0833b115a4cab16a7c34bec9702",
    "z7": "eb2d4717f4e1db5faade6942e0233edba520bef7efa26c890ecd4079809690dd",
    "z8": "dce7e6b7355159d113ce976265c2d59a085ca925606834fbd5b34f349a6add02",
    "z9": "80a539068f20599be5a15aabe37a12a138f7a4865e68527f129ed5ab9ba9d4df",
}

# the same hashes for doubles beyond the catalogue: the first four recorded
# from the floating-point character tables that the exact path replaced, S5
# (order 120) and D16 (order 32) once double_by_verlinde agreed
MORE_DOUBLE_HASHES = {
    "a5": "4dfb30539127fc22d384fe914a6d62410fa4796021168504a7b667315bb595d4",
    "d8": "4798de05fc0381b3f2b835be88c7d96a83ab92fdd149243d7af8107f6a6b66cf",
    "q8xz2": "5e789c44bc8b109a6cf5be457e9b25a1ebf9454e4af1ae65ccda9a00bb67b232",
    "d4xz2": "bc997851da8f2831b28ce9d5eb36ce93fa542f2b03f49ee4426c1256071f5b07",
    "s5": "a74a4cf5f98ac1ec8b1ee055988a097e6bfd0176650143024fc290eb8a8dd934",
    "d16": "b2a4946d4a5686645a526c10ced14d629aa4302b05eb243a035acef3dc9c25ff",
}


# the same hashes for the named fixtures, recorded from the per-fixture
# builders that the one table of products replaced
FIXTURE_HASHES = {
    "fibonacci": "8d7a14bb61c8a41ac34a36b49d1888c897732f264ae8ae496a56dc5cec2792c3",
    "ising": "5b4ecd61ed5cf50878320931fe65ccf5bc8f7f1cb728bd76c60bc2a2c121e91a",
    "so8_2": "0ebbcf13b84e6ffe1e611e11afa885e0db06254e8308cf0782572642340ff784",
    "toric": "48b580943b8b28f1e5bcc83d9702e780cd14949e6940b285649c8c6be35cdb33",
    "trivial": "637176b47bd9955bb14acb8695cddae0827e29ccca6f15025cfac4b5b966c107",
}


def _more_double_groups():
    return {
        "a5": alternating(5),
        "d8": dihedral(8),
        "q8xz2": direct_product(quaternion8(), cyclic(2)),
        "d4xz2": direct_product(dihedral(4), cyclic(2)),
        "s5": symmetric(5),
        "d16": dihedral(16),
    }


def _double_hash(rule) -> str:
    head = json.dumps([list(rule.labels), list(rule.dual)]).encode()
    return hashlib.sha256(head + rule.tensor.astype(np.int64).tobytes()).hexdigest()


class TestPointed:
    def test_z2(self):
        rule = pointed(builtin_group("z2"))
        assert rule.rank == 2
        assert rule.tensor[1, 1, 0] == 1
        series = central_series(rule)
        assert series.nilpotency_class == 1

    def test_s3_pointed_is_acyclic(self):
        rule = pointed(builtin_group("s3"))
        assert rule.rank == 6
        assert is_acyclic(rule)
        assert adjoint_subrule(rule).members == (0,)

    def test_trivial_group(self):
        rule = pointed(builtin_group("z1"))
        assert rule.rank == 1
        assert central_series(rule).nilpotency_class == 0

    def test_all_pointed_valid_and_pointed(self, pointed_rules):
        for name, rule in pointed_rules.items():
            assert rule.is_pointed, name
            if rule.rank <= 16:
                assert validate(rule).valid, name

    def test_dual_is_group_inverse(self):
        g = builtin_group("z5")
        rule = pointed(g)
        assert rule.dual == g.inverses


class TestSu2k:
    def test_level_one_is_pointed(self):
        rule = su2k(1)
        assert rule.rank == 2
        assert rule.is_pointed
        assert rule.tensor[1, 1, 0] == 1 and rule.tensor[1, 1, 1] == 0

    def test_level_two_is_ising(self):
        assert np.array_equal(su2k(2).tensor, named_fixture("ising").tensor)

    def test_rank_and_self_duality(self, su2k_rules):
        for k, rule in su2k_rules.items():
            assert rule.rank == k + 1
            assert rule.dual == tuple(range(k + 1))

    def test_matches_verlinde_oracle(self):
        for k in range(1, 9):
            assert np.array_equal(su2k(k).tensor, verlinde_su2k(k)), k

    def test_validity_up_to_twenty(self, su2k_rules):
        for k, rule in su2k_rules.items():
            assert validate(rule).valid, k

    def test_acyclic_iff_level_at_most_two(self, su2k_rules):
        for k, rule in su2k_rules.items():
            assert is_acyclic(rule) == (k <= 2), k

    def test_level_must_be_positive(self):
        with pytest.raises(ValueError):
            su2k(0)

    def test_build_peak_is_the_cube_and_one_mask(self):
        # the parity test compares an r**2 grid with a line, so no int64
        # temporary reaches rank**3; the int64 cube plus one bool cube is 1.125x
        su2k(60)
        tracemalloc.start()
        try:
            rule = su2k(60)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.3 * rule.tensor.nbytes


class TestNamedFixture:
    def test_catalogue(self):
        assert set(fixture_names()) == {"trivial", "ising", "fibonacci", "toric", "so8_2"}
        for name in fixture_names():
            assert validate(named_fixture(name)).valid, name

    def test_frozen_hashes(self):
        assert set(fixture_names()) == set(FIXTURE_HASHES)
        for name in fixture_names():
            assert _double_hash(named_fixture(name)) == FIXTURE_HASHES[name], name

    def test_unknown_name_lists_catalogue(self):
        with pytest.raises(UnknownFixtureError) as err:
            named_fixture("su2")
        assert "fibonacci" in str(err.value)

    def test_fibonacci_tensor(self):
        fib = named_fixture("fibonacci")
        assert fib.rank == 2
        assert fib.outcomes(1, 1) == {0: 1, 1: 1}

    def test_toric_is_double_of_z2(self):
        toric = named_fixture("toric")
        dd = drinfeld_double(builtin_group("z2"))
        assert np.array_equal(toric.tensor, dd.tensor)
        assert toric.dual == dd.dual

    def test_so8_2_known_invariants(self):
        rule = named_fixture("so8_2")
        assert rule.rank == 11
        assert rule.dual == tuple(range(11))
        dims = fp_dimensions(rule)
        assert sorted(round(d) for d in dims.dims) == [1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 2]
        assert abs(dims.global_dim - 32.0) <= 1e-6
        assert is_acyclic(rule)

    def test_so8_2_matches_affine_verlinde_oracle(self):
        assert np.array_equal(named_fixture("so8_2").tensor, so8_level2_tensor())

    def test_so8_2_boson_group(self):
        rule = named_fixture("so8_2")
        b1, b2, b3 = 1, 2, 3
        assert rule.outcomes(b1, b2) == {b3: 1}
        assert rule.outcomes(b1, b1) == {0: 1}


class TestDrinfeldDouble:
    def test_z2_is_toric_code(self):
        dd = drinfeld_double(builtin_group("z2"))
        assert dd.rank == 4
        assert dd.is_pointed
        assert is_acyclic(dd)

    def test_s3(self):
        dd = drinfeld_double(builtin_group("s3"))
        assert dd.rank == 8
        dims = fp_dimensions(dd)
        assert sorted(round(d) for d in dims.dims) == [1, 1, 2, 2, 2, 2, 3, 3]
        assert abs(dims.global_dim - 36.0) <= 1e-6
        assert not is_acyclic(dd)

    def test_q8(self):
        dd = drinfeld_double(builtin_group("q8"))
        assert dd.rank == 22
        assert abs(fp_dimensions(dd).global_dim - 64.0) <= 1e-6
        assert is_acyclic(dd)

    def test_doubles_validate_and_square_global_dim(self, double_rules):
        for name, rule in double_rules.items():
            order = builtin_group(name).order
            assert validate(rule).valid, name
            assert abs(fp_dimensions(rule).global_dim - order ** 2) <= 1e-6, name

    def test_double_acyclic_iff_group_nilpotent(self, double_rules):
        for name, rule in double_rules.items():
            nilpotent, _ = is_nilpotent(builtin_group(name))
            assert is_acyclic(rule) == nilpotent, name

    def test_rank_matches_orbit_count(self, double_rules):
        for name, rule in double_rules.items():
            assert rule.rank == commuting_pair_orbit_count(builtin_group(name)), name

    def test_double_fusion_is_commutative(self, double_rules):
        for name, rule in double_rules.items():
            assert np.array_equal(rule.tensor, rule.tensor.transpose(1, 0, 2)), name

    def test_vacuum_is_trivial_pair(self):
        dd = drinfeld_double(builtin_group("s3"))
        assert dd.labels[0] == "(0,0)"

    def test_rank_cap(self, monkeypatch):
        import fusionrules.generators as generators

        zeros = generators.np.zeros  # numpy's own, shared with the group layer

        def no_cube(shape, *args, **kwargs):
            if np.ndim(shape) and len(shape) == 3:
                raise AssertionError("a cube was allocated past the rank cap")
            return zeros(shape, *args, **kwargs)

        monkeypatch.setattr(generators.np, "zeros", no_cube)
        with pytest.raises(CapacityError, match="841.*784"):
            drinfeld_double(cyclic(29))
        # the group is the only parameter: no order cap, by position or keyword
        assert list(inspect.signature(drinfeld_double).parameters) == ["group"]
        with pytest.raises(TypeError):
            drinfeld_double(cyclic(5), 60)

    def test_abelian_doubles_are_pointed(self):
        for n in (3, 4):
            dd = drinfeld_double(cyclic(n))
            assert dd.rank == n * n
            assert dd.is_pointed

    def test_s4_double_builds_at_cap(self):
        dd = drinfeld_double(symmetric(4))
        assert abs(fp_dimensions(dd).global_dim - 576.0) <= 1e-6
        assert not is_acyclic(dd)

    def test_frozen_hashes(self):
        groups = {name: builtin_group(name) for name in builtin_group_names()}
        groups["s4"] = symmetric(4)
        assert set(groups) == set(DOUBLE_HASHES)
        for name, group in groups.items():
            assert _double_hash(drinfeld_double(group)) == DOUBLE_HASHES[name], name

    def test_frozen_hashes_beyond_the_catalogue(self):
        groups = _more_double_groups()
        assert set(groups) == set(MORE_DOUBLE_HASHES)
        for name, group in groups.items():
            assert _double_hash(drinfeld_double(group)) == MORE_DOUBLE_HASHES[name], name

    @pytest.mark.parametrize("group", [symmetric(5), dihedral(16)], ids=["s5", "d16"])
    def test_doubles_past_order_24(self, group):
        # S5: order 120, rank 39, not nilpotent; D16: order 32, rank 142, nilpotent
        rule = drinfeld_double(group)
        assert validate(rule).valid
        assert is_acyclic(rule) == is_nilpotent(group)[0]
        assert rule.rank == commuting_pair_orbit_count(group)
        dual, tensor = double_by_verlinde(group)
        assert rule.dual == dual
        assert np.array_equal(rule.tensor, tensor)

    @pytest.mark.slow
    def test_double_of_z5_x_z5_at_rank_625(self):
        # about 6 s; the build holds the int16 cube and its int8 copy, 0.7 GiB,
        # where one int64 cube is 1.8 GiB (pytest -m slow)
        group = direct_product(cyclic(5), cyclic(5))
        tracemalloc.start()
        try:
            rule = drinfeld_double(group)
            assert rule.rank == 625 and rule.tensor.dtype == np.int8
            assert validate(rule).valid and is_acyclic(rule)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**30

    def test_matches_verlinde_oracle(self):
        groups = {name: builtin_group(name) for name in builtin_group_names()}
        groups.update(_more_double_groups())
        for name, group in groups.items():
            if commuting_pair_orbit_count(group) <= 100:
                rule = drinfeld_double(group)
                dual, tensor = double_by_verlinde(group)
                assert rule.dual == dual, name
                assert np.array_equal(rule.tensor, tensor), name

    def test_int16_order_limit_before_character_tables(self, monkeypatch):
        import fusionrules.generators as generators

        def no_tables(*args, **kwargs):
            raise AssertionError("a character table was built past the order limit")

        monkeypatch.setattr(generators, "_characters", no_tables)
        with pytest.raises(CapacityError, match="181"):
            drinfeld_double(cyclic(182))
