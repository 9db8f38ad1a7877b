import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusionrules import (
    CapacityError,
    EnumSpec,
    FusionRule,
    NumericalError,
    StructuralError,
    builtin_group_names,
    core,
    cyclic,
    drinfeld_double,
    dump_rule,
    enumerate_rules,
    fixture_names,
    fp_dimensions,
    is_acyclic,
    named_fixture,
    parse_rule,
    pointed,
    product,
    su2k,
    validate,
)
from fusionrules.core import (
    _assoc_sparse,
    _associativity_defects,
    _commuting_certificate,
    _full_rank_mod,
    _integer_dims,
    default_labels,
)
from fusionrules.groups import builtin_group, dihedral, direct_product, symmetric

from oracles import associativity_defect_list, fp_verdicts_reference, naive_validate

GOLDEN = (1 + 5 ** 0.5) / 2


def rank2_rule(vacuum_mult=1, self_channel=0):
    t = np.zeros((2, 2, 2), dtype=np.int64)
    t[0, 0, 0] = 1
    t[0, 1, 1] = 1
    t[1, 0, 1] = 1
    t[1, 1, 0] = vacuum_mult
    t[1, 1, 1] = self_channel
    return FusionRule(labels=("1", "x"), dual=(0, 1), tensor=t)


class TestFusionRule:
    def test_structural_checks(self):
        with pytest.raises(StructuralError):
            FusionRule(labels=(), dual=(), tensor=np.zeros((0, 0, 0)))
        with pytest.raises(StructuralError):
            FusionRule(labels=("1", "x"), dual=(0, 0), tensor=np.zeros((2, 2, 2)))
        with pytest.raises(StructuralError):
            FusionRule(labels=("1", "x"), dual=(0, 1), tensor=np.zeros((2, 2, 3)))
        with pytest.raises(StructuralError):
            t = np.zeros((2, 2, 2))
            t[1, 1, 1] = -1
            FusionRule(labels=("1", "x"), dual=(0, 1), tensor=t)
        with pytest.raises(StructuralError):
            t = np.zeros((2, 2, 2))
            t[1, 1, 1] = 0.5
            FusionRule(labels=("1", "x"), dual=(0, 1), tensor=t)

    @pytest.mark.parametrize("dual", [(0, 1.9), (0, 1.0), (0, "1"), (0, None), (0, np.float64(1))])
    def test_dual_entries_must_be_integers(self, dual):
        with pytest.raises(StructuralError, match="dual map entries must be integers"):
            FusionRule(labels=("1", "x"), dual=dual, tensor=rank2_rule().tensor)

    def test_numpy_integer_dual_accepted(self):
        rule = FusionRule(labels=("1", "x"), dual=np.array([0, 1]), tensor=rank2_rule().tensor)
        assert rule.dual == (0, 1) and all(type(d) is int for d in rule.dual)

    @pytest.mark.parametrize("labels", [("1", 2.5), ("1", None), ("1", b"x"), (1, "x")])
    def test_labels_must_be_strings(self, labels):
        with pytest.raises(StructuralError, match="labels must be strings"):
            FusionRule(labels=labels, dual=(0, 1), tensor=rank2_rule().tensor)

    def test_one_string_is_not_a_label_sequence(self):
        # "1x" would otherwise be read as the two labels "1" and "x"
        with pytest.raises(StructuralError, match="not the string '1x'"):
            FusionRule(labels="1x", dual=(0, 1), tensor=rank2_rule().tensor)

    def test_string_subclass_labels_become_str(self):
        rule = FusionRule(labels=np.array(["1", "x"]), dual=(0, 1), tensor=rank2_rule().tensor)
        assert rule.labels == ("1", "x") and all(type(x) is str for x in rule.labels)

    @pytest.mark.parametrize("value,dtype,message", [
        (np.inf, np.float64, "tensor entries must be finite"),
        (-np.inf, np.float64, "tensor entries must be finite"),
        (np.nan, np.float64, "tensor entries must be finite"),
        (1e19, np.float64, "tensor entries must be below 2**63 to fit int64"),
        (2.0**63, np.float64, "tensor entries must be below 2**63 to fit int64"),
        (-1e19, np.float64, "tensor entries must be non-negative"),
        (2**63, np.uint64, "tensor entries must be below 2**63 to fit int64"),
    ])
    def test_out_of_range_entries_refused_before_the_cast(self, value, dtype, message):
        t = np.zeros((1, 1, 1), dtype=dtype)
        t[0, 0, 0] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the int64 cast warns on these values
            with pytest.raises(StructuralError) as exc:
                FusionRule(labels=("1",), dual=(0,), tensor=t)
        assert str(exc.value) == message

    @pytest.mark.parametrize("value", [2**64, -2**64])
    def test_entries_past_64_bits_refused(self, value):
        # numpy holds these in an object array, which the finiteness check cannot take
        with pytest.raises(StructuralError) as exc:
            FusionRule(labels=("1",), dual=(0,), tensor=[[[value]]])
        assert str(exc.value) == "tensor entries must be numbers within 64 bits, got object"

    @pytest.mark.parametrize("value,dtype", [
        (2.0**62, np.float64), (2**63 - 1, np.uint64), (2**63 - 1, np.int64), (1, np.bool_),
    ])
    def test_largest_entries_accepted(self, value, dtype):
        t = np.zeros((1, 1, 1), dtype=dtype)
        t[0, 0, 0] = value
        rule = FusionRule(labels=("1",), dual=(0,), tensor=t)
        assert rule.tensor.dtype == np.int64 and int(rule.tensor[0, 0, 0]) == int(value)

    def test_tensor_is_immutable(self):
        rule = named_fixture("ising")
        with pytest.raises(ValueError):
            rule.tensor[0, 0, 0] = 5

    def test_outcomes_and_pointedness(self):
        ising = named_fixture("ising")
        assert ising.outcomes(1, 1) == {0: 1, 2: 1}
        assert not ising.is_pointed
        assert named_fixture("toric").is_pointed


class TestValidate:
    def test_ising_valid_and_matches_naive_oracle(self):
        ising = named_fixture("ising")
        assert validate(ising).valid
        assert naive_validate(ising)

    def test_vacuum_multiplicity_two_rejected(self):
        report = validate(rank2_rule(vacuum_mult=2))
        assert not report.valid
        assert any(v.axiom == "vacuum_multiplicity" and v.index == (1,) for v in report.violations)

    def test_non_involution_dual_rejected(self):
        t = np.zeros((3, 3, 3), dtype=np.int64)
        for a in range(3):
            t[0, a, a] = 1
            t[a, 0, a] = 1
        report = validate(FusionRule(labels=("1", "a", "b"), dual=(1, 2, 0), tensor=t))
        assert not report.valid
        assert "involution" in report.codes()

    def test_associativity_violation_located(self):
        # sigma x sigma = 1 + sigma breaks associativity at rank 3 with psi
        ising = named_fixture("ising")
        t = np.array(ising.tensor)
        t[1, 1, 1] = 1
        t[1, 1, 2] = 0
        report = validate(FusionRule(labels=ising.labels, dual=ising.dual, tensor=t))
        assert not report.valid
        assert "associativity" in report.codes()

    def test_violation_order_is_deterministic_and_lexicographic(self):
        t = np.zeros((3, 3, 3), dtype=np.int64)
        report = validate(FusionRule(labels=("1", "a", "b"), dual=(0, 1, 2), tensor=t))
        assert not report.valid
        indices = [v.index for v in report.violations if v.axiom == "unit"]
        assert indices == sorted(indices)
        again = validate(FusionRule(labels=("1", "a", "b"), dual=(0, 1, 2), tensor=t))
        assert again.violations == report.violations

    def test_vacuum_row_cell_reported_once(self):
        # N[0,0,1] lies in both the vacuum row and the vacuum column
        ising = named_fixture("ising")
        t = np.array(ising.tensor)
        t[0, 0, 1] = 1
        report = validate(FusionRule(labels=ising.labels, dual=ising.dual, tensor=t))
        assert [v.index for v in report.violations if v.axiom == "unit"] == [(0, 0, 1)]

    def test_vacuum_uniqueness_has_dedicated_code(self):
        # the bare axiom set admits rules with extra vacuum channels; those
        # must fail with only the dedicated code set
        from fusionrules import EnumSpec, enumerate_rules

        strict_only = [
            r
            for r in enumerate_rules(EnumSpec(rank=3, max_mult=1, bare_axioms=True))
            if not validate(r).valid
        ]
        assert len(strict_only) == 2
        for rule in strict_only:
            report = validate(rule)
            assert report.codes() == ("vacuum_uniqueness",)
            assert report.only_vacuum_uniqueness

    def test_corpus_all_valid(self, corpus):
        for name, rule in corpus.items():
            if rule.rank <= 30:
                assert validate(rule).valid, name

    def test_matches_naive_oracle_on_mutations(self):
        rng = np.random.default_rng(7)
        base = named_fixture("ising")
        for _ in range(40):
            t = np.array(base.tensor)
            i, j, k = rng.integers(0, 3, size=3)
            t[i, j, k] = rng.integers(0, 3)
            rule = FusionRule(labels=base.labels, dual=base.dual, tensor=t)
            assert validate(rule).valid == naive_validate(rule)

    def test_report_runs_axiom_by_axiom_in_index_order(self):
        order = ("involution", "unit", "dual_symmetry", "associativity",
                 "vacuum_multiplicity", "vacuum_uniqueness", "adjoint_symmetry")
        rng = np.random.default_rng(11)
        for _ in range(200):
            r = int(rng.integers(1, 5))
            t = rng.integers(0, 3, size=(r, r, r))
            dual = tuple(int(x) for x in rng.permutation(r))
            found = validate(FusionRule(labels=default_labels(r), dual=dual, tensor=t)).violations
            keys = [(order.index(v.axiom), v.index) for v in found]
            assert keys == sorted(keys)

    def test_blocked_associativity_path_at_large_rank(self):
        # a large pointed rule: one extra channel breaks associativity, and the
        # listing, not the certificate, reports it
        base = pointed(cyclic(41))
        assert validate(base).valid
        t = np.array(base.tensor)
        t[1, 2, 5] = 1
        report = validate(FusionRule(labels=base.labels, dual=base.dual, tensor=t))
        assert "associativity" in report.codes()

    def test_capacity_guard(self):
        # 2 * (2**31)**2 = 2**63 is past int64's range
        t = np.array(rank2_rule().tensor)
        t[1, 1, 1] = 2**31
        with pytest.raises(CapacityError, match=r"2\*\*63 - 1"):
            validate(FusionRule(labels=("1", "x"), dual=(0, 1), tensor=t))

    def test_exact_at_the_capacity_bound(self):
        # 2 * (2**31 - 1)**2 < 2**63 - 1: the largest entry the guard lets
        # through; lhs(1,0,1,1) = (2**31 - 2) * (2**31 - 1) with a small rhs
        t = np.array(rank2_rule().tensor)
        t[1, 1, 1] = 2**31 - 1
        t[1, 0, 1] = 2**31 - 2
        expected = associativity_defect_list(t)
        assert max(abs(d[4]) for d in expected) > 2**61
        assert list(_associativity_defects(t)) == expected
        assert sparse_defects(t) == expected
        report = validate(FusionRule(labels=("1", "x"), dual=(0, 1), tensor=t))
        found = [v for v in report.violations if v.axiom == "associativity"]
        assert [v.index for v in found] == [d[:4] for d in expected]
        assert [v.message.rsplit(" = ", 1)[1] for v in found] == [str(d[4]) for d in expected]

    def test_exact_at_the_float32_bound(self):
        # rank 4 * (2**11)**2 = 2**24, where float32 stops being exact.
        # lhs(1,1,2,3) = top * (4*top - 1) and its rhs is 0: above 2**23 at
        # top = 2**11, and past 2**24 and odd one entry higher, where a float32
        # product would round; the int64 listing is exact on both
        for top in (2**11, 2**11 + 1):
            t = np.zeros((4, 4, 4), dtype=np.int64)
            t[1, 1] = (top, top, top, top - 1)
            t[:, 2, 3] = top
            expected = associativity_defect_list(t)
            assert (1, 1, 2, 3, top * (4 * top - 1)) in expected
            assert list(_associativity_defects(t)) == expected

    def test_double_of_z16_is_valid(self):
        # rank 256 at 0.4% density, proved by the certificate
        assert validate(drinfeld_double(builtin_group("z16"))).valid

    def test_associativity_takes_certificate_or_listing(self, monkeypatch):
        # commutative rules are proved associative by the certificate; the
        # non-commutative pointed rule of D20 (rank 40) and S3 x SU(2)_3
        # (rank 24) are listed
        taken = record_paths(monkeypatch)
        assert validate(drinfeld_double(builtin_group("z10"))).valid
        assert validate(su2k(20)).valid
        assert validate(pointed(dihedral(20))).valid
        assert validate(product(su2k(3), pointed(symmetric(3)))).valid
        assert taken == ["_commuting_certificate", "_commuting_certificate",
                         "_assoc_sparse", "_assoc_sparse"]

    def test_rules_are_hashable(self):
        assert len({named_fixture("ising"), named_fixture("ising")}) == 1

    def test_valid_rules_satisfy_reciprocity(self, corpus):
        # consequence of associativity + unit + unique vacuum channel:
        # the fusion matrix of the dual label is the transpose
        for name, rule in corpus.items():
            for i in range(rule.rank):
                assert np.array_equal(rule.tensor[rule.dual[i]], rule.tensor[i].T), name


def sparse_defects(t):
    return list(_assoc_sparse(t))


def record_paths(monkeypatch) -> list:
    """Patch the certificate and the listing to append their name to the
    returned list each time ``_associativity_defects`` takes one: the
    certificate when it proves a tensor associative, the listing when it is
    called."""
    taken = []
    certify = core._commuting_certificate

    def certified(*args):
        proved = certify(*args)
        if proved:
            taken.append("_commuting_certificate")
        return proved

    listing = core._assoc_sparse

    def listed(N):
        taken.append("_assoc_sparse")
        yield from listing(N)

    monkeypatch.setattr(core, "_commuting_certificate", certified)
    monkeypatch.setattr(core, "_assoc_sparse", listed)
    return taken


@st.composite
def small_tensors(draw):
    r = draw(st.integers(1, 6))
    flat = draw(st.lists(st.integers(0, 3), min_size=r**3, max_size=r**3))
    return np.array(flat, dtype=np.int64).reshape(r, r, r)


class TestAssociativityDefects:
    """The dispatched check and its listing, called directly, against the
    dense int64 einsum."""

    @settings(max_examples=300, deadline=None)
    @given(small_tensors())
    def test_matches_dense_reference_on_random_tensors(self, t):
        expected = associativity_defect_list(t)
        assert list(_associativity_defects(t)) == expected
        assert sparse_defects(t) == expected

    @pytest.mark.parametrize("name,mutations", [
        ("su2k_20", 12), ("so8_2", 12), ("so8_2_x_toric", 3), ("pointed_z41", 3), ("double_z6", 6),
        ("su2k_3_x_s3", 1),
    ])
    def test_matches_dense_reference_on_mutations(self, name, mutations):
        rule = {
            "su2k_20": lambda: su2k(20),
            "so8_2": lambda: named_fixture("so8_2"),
            "so8_2_x_toric": lambda: product(named_fixture("so8_2"), named_fixture("toric")),
            "pointed_z41": lambda: pointed(cyclic(41)),
            "double_z6": lambda: drinfeld_double(builtin_group("z6")),
            "su2k_3_x_s3": lambda: product(su2k(3), pointed(symmetric(3))),
        }[name]()
        rng = np.random.default_rng(rule.rank)
        for _ in range(mutations):
            t = np.array(rule.tensor)
            i, j, k = rng.integers(0, rule.rank, size=3)
            t[i, j, k] = (t[i, j, k] + rng.integers(1, 4)) % 4
            expected = associativity_defect_list(t)
            assert expected
            assert list(_associativity_defects(t)) == expected
            assert sparse_defects(t) == expected
            report = validate(FusionRule(labels=rule.labels, dual=rule.dual, tensor=t))
            found = [v.index for v in report.violations if v.axiom == "associativity"]
            assert found == [d[:4] for d in expected]


@st.composite
def commutative_tensors(draw):
    """Random tensors made commutative, ``N[a,b,c] == N[b,a,c]``, with entries 0..3."""
    r = draw(st.integers(1, 8))
    raw = draw(st.binary(min_size=r**3, max_size=r**3))  # bytes draw far faster than int lists
    t = (np.frombuffer(raw, dtype=np.uint8) % 4).astype(np.int64).reshape(r, r, r)
    return np.maximum(t, t.transpose(1, 0, 2))


def certified(t) -> bool:
    return _commuting_certificate(t, int(t.max()))


class TestCommutingCertificate:
    """The certificate proves only tensors without a defect, and proves every
    commutative rule of the corpus; whatever it refuses is listed."""

    @settings(max_examples=300, deadline=None)
    @given(commutative_tensors())
    def test_matches_dense_reference_on_commutative_tensors(self, t):
        expected = associativity_defect_list(t)
        assert list(_associativity_defects(t)) == expected
        if expected:
            assert not certified(t)

    @pytest.mark.parametrize("name,mutations", [
        ("su2k_20", 8), ("double_z6", 4), ("so8_2_x_toric", 2), ("double_z10", 2),
    ])
    def test_refuses_commutative_mutants(self, name, mutations):
        rule = {
            "su2k_20": lambda: su2k(20),
            "double_z6": lambda: drinfeld_double(builtin_group("z6")),
            "so8_2_x_toric": lambda: product(named_fixture("so8_2"), named_fixture("toric")),
            "double_z10": lambda: drinfeld_double(builtin_group("z10")),
        }[name]()
        assert certified(rule.tensor)
        rng = np.random.default_rng(rule.rank)
        for _ in range(mutations):
            t = np.array(rule.tensor)
            i, j, k = rng.integers(0, rule.rank, size=3)
            t[i, j, k] = t[j, i, k] = (t[i, j, k] + rng.integers(1, 4)) % 4
            # the dense oracle needs rank**4 memory, too much at rank 100,
            # where the sparse path, pinned to it above, is the reference
            expected = sparse_defects(t) if rule.rank > 50 else associativity_defect_list(t)
            assert expected
            assert not certified(t)
            assert list(_associativity_defects(t)) == expected

    def test_proves_every_commutative_corpus_rule(self, corpus):
        commutative = {name: rule for name, rule in corpus.items()
                       if np.array_equal(rule.tensor, rule.tensor.transpose(1, 0, 2))}
        assert {name for name in corpus if name not in commutative} == {
            f"pointed:{g}" for g in builtin_group_names() if not builtin_group(g).is_abelian}
        for name, rule in commutative.items():
            assert certified(rule.tensor), name

    def test_needs_a_cyclic_combination(self, monkeypatch):
        # a commutative loop of order 6 that is not associative: its
        # multiplication maps sum to the all-ones matrix, which commutes with
        # each of them but is not cyclic, so with every draw constant the
        # commutators alone would pass
        loop = np.array([[0, 1, 2, 3, 4, 5], [1, 0, 3, 2, 5, 4], [2, 3, 4, 5, 0, 1],
                         [3, 2, 5, 4, 1, 0], [4, 5, 0, 1, 3, 2], [5, 4, 1, 0, 2, 3]])
        t = (loop[:, :, None] == np.arange(6)).astype(np.int64)  # N[a,b,c] = [a*b == c]
        expected = associativity_defect_list(t)
        assert expected

        class Constant:
            def __init__(self, seed):
                pass

            def integers(self, low, high, size, endpoint=False):
                return np.full(size, low)

        monkeypatch.setattr(core.np.random, "default_rng", Constant)
        assert not certified(t)
        assert list(_associativity_defects(t)) == expected

    def test_float64_draw_after_a_float32_draw_fails(self, monkeypatch):
        # with every c_i drawn in float32's range pinned to 1, A = sum_i N_i,
        # the all-ones matrix for an abelian double, is not cyclic; the next
        # draw, in float64's range, proves the double.  The doubles are built
        # first: their character tables draw from default_rng too.
        doubles = [drinfeld_double(builtin_group(g)) for g in ("z2xz2", "z6", "s3")]
        real = np.random.default_rng

        class LowInFloat32:
            def __init__(self, seed):
                self.rng = real(seed)

            def integers(self, low, high, size, endpoint=False):
                if high <= 2**24:
                    return np.full(size, low)
                return self.rng.integers(low, high, size=size, endpoint=endpoint)

        monkeypatch.setattr(core.np.random, "default_rng", LowInFloat32)
        for rule in doubles:
            assert certified(rule.tensor), rule.rank

    @pytest.mark.slow
    def test_double_of_d4_x_d4_is_proved(self, monkeypatch):
        # rank 484: no float32 draw is cyclic, so this needs the float64 draw;
        # about 8 s and 1.9 GB, outside tier-1 (pytest -m slow)
        d4 = builtin_group("d4")
        rule = drinfeld_double(direct_product(d4, d4))
        assert rule.rank == 484
        taken = record_paths(monkeypatch)
        assert validate(rule).valid
        assert taken == ["_commuting_certificate"]

    def test_non_commutative_rule_is_listed(self, monkeypatch):
        # every slice the cyclic shift: the slices commute and sum to a cyclic
        # matrix, but the tensor is not commutative and has defects
        shift = np.zeros((5, 5, 5), dtype=np.int64)
        shift[:, np.arange(5), (np.arange(5) + 1) % 5] = 1
        assert associativity_defect_list(shift) and not certified(shift)
        rule = pointed(symmetric(3))
        assert not certified(rule.tensor)
        taken = record_paths(monkeypatch)
        assert validate(rule).valid
        assert taken == ["_assoc_sparse"]

    def test_float_range(self, monkeypatch):
        # x*x = 1 + n*x: r * max(N) * max(sum_i N_i) is 2 * n * (n + 1), which
        # takes float64 past 2**14 and is past float64's range at n = 2**22
        taken = record_paths(monkeypatch)
        for n in (50, 100, 2**21 - 1, 2**22):
            assert validate(rank2_rule(self_channel=n)).valid
        assert taken == ["_commuting_certificate"] * 3 + ["_assoc_sparse"]

    def test_full_rank_mod(self):
        p = core._KRYLOV_PRIME
        assert _full_rank_mod(np.eye(3, dtype=np.int64), p)
        assert _full_rank_mod(np.array([[0, 1], [1, 0]]), p)  # a zero pivot swaps rows
        assert not _full_rank_mod(np.array([[1, 2], [2, 4]]), p)
        assert not _full_rank_mod(np.array([[2, 1], [1, (p + 1) // 2]]), p)  # det = p
        # 40 steps of unreduced updates, and a row that is a combination of two others
        K = np.random.default_rng(3).integers(0, p, size=(40, 40))
        assert _full_rank_mod(K, p)
        K[7] = (3 * K[2] + 5 * K[30]) % p
        assert not _full_rank_mod(K, p)


def _named_fp_rules():
    """The fixtures and their pairwise products, SU(2)_k for k = 1..60, and
    the pointed rule and the double of every built-in group, one at a time."""
    fixtures = {name: named_fixture(name) for name in fixture_names()}
    yield from fixtures.items()
    for (a, rule_a), (b, rule_b) in itertools.combinations_with_replacement(fixtures.items(), 2):
        yield f"{a}x{b}", product(rule_a, rule_b)
    for k in range(1, 61):
        yield f"su2k:{k}", su2k(k)
    for name in builtin_group_names():
        yield f"pointed:{name}", pointed(builtin_group(name))
        yield f"double:{name}", drinfeld_double(builtin_group(name))


class TestFPDimensions:
    def test_so8_2_dims(self):
        dims = fp_dimensions(named_fixture("so8_2"))
        assert dims.is_integral and dims.is_weakly_integral
        assert sorted(dims.dims) == [1.0] * 4 + [2.0] * 7  # so the global dim is 32

    def test_fibonacci_golden_ratio(self):
        dims = fp_dimensions(named_fixture("fibonacci"))
        assert abs(dims.dims[1] - GOLDEN) < 1e-7
        assert abs(dims.global_dim - (1 + GOLDEN ** 2)) < 1e-6
        assert not dims.is_integral
        assert not dims.is_weakly_integral

    def test_pointed_rules_have_unit_dims(self, pointed_rules):
        for name, rule in pointed_rules.items():
            dims = fp_dimensions(rule)
            assert all(abs(d - 1.0) <= 1e-9 for d in dims.dims), name
            assert abs(dims.global_dim - rule.rank) <= 1e-6
            assert dims.is_integral

    def test_vacuum_dim_is_one_and_dual_invariant(self, corpus):
        for name, rule in corpus.items():
            dims = fp_dimensions(rule)
            assert abs(dims.dims[0] - 1.0) <= 1e-9, name
            for i in range(rule.rank):
                assert abs(dims.dims[i] - dims.dims[rule.dual[i]]) <= 1e-6, name

    def test_determinism(self):
        rule = named_fixture("so8_2")
        a = fp_dimensions(rule)
        b = fp_dimensions(rule)
        assert all(abs(x - y) <= 2e-6 for x, y in zip(a.dims, b.dims))

    def test_matches_dense_eigensolver(self, corpus):
        rules = dict(corpus)
        rules.update({f"r4m3:{n}": r for n, r in enumerate(enumerate_rules(EnumSpec(4, 3)))})
        rules.update({f"double:z{n}": drinfeld_double(builtin_group(f"z{n}")) for n in range(7, 13)})
        for name, rule in rules.items():
            dims = fp_dimensions(rule)
            for i in range(rule.rank):
                radius = max(abs(np.linalg.eigvals(rule.tensor[i].astype(float))))
                assert abs(dims.dims[i] - radius) < 1e-9, name

    @settings(max_examples=300, deadline=None)
    @given(small_tensors())
    def test_random_tensors_give_spectral_radii_or_raise(self, t):
        r = t.shape[0]
        rule = FusionRule(labels=tuple(str(x) for x in range(r)), dual=tuple(range(r)), tensor=t)
        try:
            dims = fp_dimensions(rule)
        except NumericalError:
            return
        for i, dim in enumerate(dims.dims):
            radius = max(abs(np.linalg.eigvals(t[i].astype(float))))
            # the residual check bounds the error by 1e-6 * (1 + dim); the
            # slack covers the eigensolver on defective matrices
            assert np.isfinite(dim) and abs(dim - radius) <= 1e-6 * (1 + dim) + 1e-7

    @pytest.mark.parametrize("t", [
        # a Perron entry small enough to underflow the residual bound to 0
        [[[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 2, 2]],
         [[0, 0, 2, 0], [0, 1, 0, 0], [0, 0, 0, 0], [2, 0, 1, 0]],
         [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 1, 0, 0]],
         [[2, 0, 0, 0], [0, 0, 0, 0], [0, 2, 1, 0], [0, 0, 0, 0]]],
        # one small enough that d.d overflows
        [[[0, 0, 0, 0], [0, 0, 0, 2], [0, 0, 0, 0], [0, 0, 0, 3]],
         [[0, 0, 0, 0], [0, 0, 2, 0], [0, 0, 2, 0], [0, 0, 0, 0]],
         [[0, 0, 0, 0], [0, 0, 0, 0], [3, 0, 3, 0], [0, 1, 0, 0]],
         [[2, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0], [0, 2, 3, 1]]],
    ])
    def test_tiny_perron_entry_raises_without_warnings(self, t):
        rule = FusionRule(labels=("0", "1", "2", "3"), dual=(0, 1, 2, 3), tensor=np.array(t))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError):
                fp_dimensions(rule)

    @pytest.mark.parametrize("n, near_integer", [(999, False), (1001, True), (2000, True)])
    def test_near_integer_global_dim_is_not_weakly_integral(self, n, near_integer):
        # x * x = 1 + n x: D**2 = n**2 + 3 - O(1/n**2) lies within 1e-6 of an
        # integer for n = 1001 and 2000, which a float test read as weakly integral
        rule = rank2_rule(self_channel=n)
        assert validate(rule).valid
        dims = fp_dimensions(rule)
        assert (abs(dims.global_dim - round(dims.global_dim)) <= 1e-6) == near_integer
        assert not dims.is_integral and not dims.is_weakly_integral

    def test_dim_cap(self):
        dims = fp_dimensions(rank2_rule(self_channel=2**17 - 1))
        assert dims.dims[1] < core.FP_DIM_CAP
        assert not dims.is_integral and not dims.is_weakly_integral
        with pytest.raises(CapacityError, match="2\\*\\*17"):
            fp_dimensions(rank2_rule(self_channel=2**17))

    def test_column_sum_overflow_refused(self):
        # three entries of 2**62 in one column sum past 2**63 - 1 in int64
        t = np.zeros((3, 3, 3), dtype=np.int64)
        t[:, 1, 1] = 2**62
        with pytest.raises(CapacityError, match=r"rank \* max\(N\) <= 2\*\*63 - 1"):
            fp_dimensions(FusionRule(labels=default_labels(3), dual=(0, 1, 2), tensor=t))

    def test_integer_dims_overflow_guard(self):
        N = pointed(cyclic(2)).tensor
        ones = np.ones(2)
        # rank * top * max(m) must stay within 2**63 - 1
        assert list(_integer_dims(N, ones, (2**63 - 1) // 2)) == [1, 1]
        with pytest.raises(CapacityError, match="2\\*\\*63 - 1"):
            _integer_dims(N, ones, (2**63 - 1) // 2 + 1)
        N = named_fixture("toric").tensor
        assert list(_integer_dims(N, np.ones(4), (2**63 - 1) // 4)) == [1] * 4
        with pytest.raises(CapacityError, match="2\\*\\*63 - 1"):
            _integer_dims(N, np.ones(4), (2**63 - 1) // 4 + 1)

    def test_integer_dims_rejects_a_non_eigenvector(self):
        fib = named_fixture("fibonacci").tensor
        assert _integer_dims(fib, np.array([1.0, 1.618]), 2) is None
        assert _integer_dims(fib, np.array([1.0, 0.4]), 2) is None  # rounds to 0
        assert _integer_dims(fib, np.array([1.0, 9.0]), 2) is None  # past rank * top

    @pytest.mark.parametrize("census", ["named", (4, 3), (5, 1), (5, 2)])
    def test_matches_float_reference(self, census, request):
        if census == "named":
            rules = _named_fp_rules()
        else:
            stream = (request.getfixturevalue("r5m2_rules") if census == (5, 2)
                      else enumerate_rules(EnumSpec(*census)))
            rules = ((f"r{census}:{n}", r) for n, r in enumerate(stream))
        for name, rule in rules:
            dims = fp_dimensions(rule)
            ref_dims, ref_global, integral, weakly_integral = fp_verdicts_reference(rule)
            assert (dims.is_integral, dims.is_weakly_integral) == (integral, weakly_integral), name
            assert np.allclose(dims.dims, ref_dims, rtol=1e-9, atol=1e-9), name
            assert abs(dims.global_dim - ref_global) <= 1e-9 * ref_global, name


class TestProduct:
    def test_entry_overflow_raises(self):
        # 2**32 * 2**32 = 2**64 would wrap to 0 in int64
        big = rank2_rule(self_channel=2**32)
        with pytest.raises(CapacityError, match="2\\*\\*63 - 1"):
            product(big, big)
        assert product(big, rank2_rule()).tensor.max() == 2**32

    def test_trivial_factor_is_identity(self):
        ising = named_fixture("ising")
        prod = product(ising, named_fixture("trivial"))
        assert prod.rank == 3
        assert np.array_equal(prod.tensor, ising.tensor)
        assert prod.dual == ising.dual

    def test_ising_squared(self):
        ising = named_fixture("ising")
        prod = product(ising, ising)
        assert prod.rank == 9
        assert validate(prod).valid
        assert is_acyclic(prod)

    def test_fibonacci_times_z2(self):
        prod = product(named_fixture("fibonacci"), pointed(builtin_group("z2")))
        assert prod.rank == 4
        assert validate(prod).valid
        assert not is_acyclic(prod)

    def test_vacuum_is_index_zero_and_dims_factor(self):
        a = named_fixture("ising")
        b = named_fixture("fibonacci")
        prod = product(a, b)
        assert prod.labels[0] == "(1,1)"
        da, db, dp = fp_dimensions(a), fp_dimensions(b), fp_dimensions(prod)
        for i in range(a.rank):
            for p in range(b.rank):
                assert abs(dp.dims[i * b.rank + p] - da.dims[i] * db.dims[p]) < 1e-6

    def test_products_of_fixtures_validate(self, fixture_rules):
        small = [r for r in fixture_rules.values() if r.rank <= 4]
        for a in small:
            for b in small:
                assert validate(product(a, b)).valid

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_product_properties(self, corpus, data):
        # factors from the corpus, which holds the pointed rules of every
        # built-in group and SU(2)_k up to k = 20; products up to rank 48 take
        # both associativity paths (pointed ones of rank 40 and up the sparse one)
        names = sorted(corpus)
        a = corpus[data.draw(st.sampled_from(names), label="a")]
        b = corpus[data.draw(st.sampled_from(
            [n for n in names if a.rank * corpus[n].rank <= 48]), label="b")]
        prod = product(a, b)
        assert prod.rank == a.rank * b.rank
        assert parse_rule(dump_rule(prod)) == prod
        assert validate(prod).valid
        da, db, dp = fp_dimensions(a), fp_dimensions(b), fp_dimensions(prod)
        assert np.allclose(dp.dims, np.outer(da.dims, db.dims).ravel(), rtol=1e-6, atol=0)
