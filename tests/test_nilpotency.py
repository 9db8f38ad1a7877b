import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusionrules import (
    FusionRule,
    LabelSet,
    StructuralError,
    adjoint_subrule,
    central_series,
    closure,
    named_fixture,
    pointed,
    restrict,
    su2k,
    validate,
)
from fusionrules.groups import builtin_group
from fusionrules.nilpotency import is_closed

from oracles import closure_by_fixpoint


class TestClosure:
    def test_empty_seed_gives_vacuum(self):
        assert closure(named_fixture("ising"), ()).members == (0,)

    def test_ising_psi_closes_to_pair(self):
        assert closure(named_fixture("ising"), {2}).members == (0, 2)

    def test_ising_sigma_generates_everything(self):
        assert closure(named_fixture("ising"), {1}).members == (0, 1, 2)

    def test_su24_integer_spins(self):
        # doubled label 2 is the spin-1 anyon; it generates the integer spins
        assert closure(su2k(4), {2}).members == (0, 2, 4)

    def test_idempotent(self, corpus):
        for name, rule in corpus.items():
            if rule.rank > 25:
                continue
            for seed in ({1 % rule.rank}, set(range(rule.rank))):
                first = closure(rule, seed)
                assert closure(rule, set(first.members)).members == first.members, name

    def test_seed_order_irrelevant(self):
        rule = su2k(6)
        a = closure(rule, [5, 1, 3])
        b = closure(rule, [3, 5, 1])
        assert a.members == b.members

    def test_out_of_range_seed(self):
        with pytest.raises(StructuralError):
            closure(named_fixture("ising"), {7})

    def test_results_are_closed(self, corpus):
        for name, rule in corpus.items():
            if rule.rank > 16:
                continue
            for i in range(rule.rank):
                assert is_closed(rule, closure(rule, {i}).members), name


class TestAdjointSubrule:
    def test_pointed_collapses_to_vacuum(self):
        assert adjoint_subrule(pointed(builtin_group("z5"))).members == (0,)

    def test_ising(self):
        assert adjoint_subrule(named_fixture("ising")).members == (0, 2)

    def test_fibonacci_is_stable(self):
        assert adjoint_subrule(named_fixture("fibonacci")).members == (0, 1)

    def test_unclosed_support_rejected(self):
        with pytest.raises(StructuralError):
            adjoint_subrule(named_fixture("ising"), LabelSet(members=(0, 1)))

    def test_result_inside_support(self):
        rule = su2k(4)
        support = closure(rule, {2})
        inner = adjoint_subrule(rule, support)
        assert set(inner.members) <= set(support.members)


class TestCentralSeries:
    def test_ising_chain(self):
        series = central_series(named_fixture("ising"))
        assert [s.members for s in series.chain] == [(0, 1, 2), (0, 2), (0,)]
        assert series.nilpotent and series.nilpotency_class == 2

    def test_pointed_z2(self):
        series = central_series(pointed(builtin_group("z2")))
        assert [s.members for s in series.chain] == [(0, 1), (0,)]
        assert series.nilpotent and series.nilpotency_class == 1

    def test_trivial_rule_class_zero(self):
        series = central_series(named_fixture("trivial"))
        assert series.nilpotent and series.nilpotency_class == 0
        assert len(series.chain) == 1

    def test_su24_stabilizes(self):
        series = central_series(su2k(4))
        assert not series.nilpotent
        assert series.nilpotency_class is None
        # stabilizes at the integer-spin sub-rule, repeated at the end
        assert series.chain[-1].members == (0, 2, 4)
        assert series.chain[-1].members == series.chain[-2].members

    def test_chain_shrinks_until_stabilization(self, corpus):
        for name, rule in corpus.items():
            series = central_series(rule)
            sizes = [s.rank for s in series.chain]
            assert sizes[0] == rule.rank, name
            for a, b in zip(sizes, sizes[1:-1]):
                assert b < a, name
            assert len(series.chain) <= rule.rank + 1, name
            if series.nilpotent:
                assert sizes[-1] == 1
                assert series.nilpotency_class == len(series.chain) - 1
            else:
                assert sizes[-1] > 1
                assert series.chain[-1].members == series.chain[-2].members

    def test_so8_2_class_three(self):
        series = central_series(named_fixture("so8_2"))
        assert series.nilpotent
        assert series.nilpotency_class == 3
        assert [s.rank for s in series.chain] == [11, 5, 4, 1]

    def test_product_series_combines_classes(self, fixture_rules):
        from fusionrules import product

        names = sorted(fixture_rules)
        series = {n: central_series(fixture_rules[n]) for n in names}
        for a in names:
            for b in names:
                combined = central_series(product(fixture_rules[a], fixture_rules[b]))
                if series[a].nilpotent and series[b].nilpotent:
                    assert combined.nilpotent, (a, b)
                    assert combined.nilpotency_class == max(
                        series[a].nilpotency_class, series[b].nilpotency_class
                    ), (a, b)
                else:
                    assert not combined.nilpotent, (a, b)


class TestRestrict:
    def test_ising_vacuum_psi(self):
        rule = restrict(named_fixture("ising"), LabelSet(members=(0, 2)))
        assert rule.rank == 2
        assert rule.labels == ("1", "psi")
        assert rule.tensor[1, 1, 0] == 1 and rule.tensor[1, 1, 1] == 0
        assert validate(rule).valid

    def test_full_support_is_identity(self):
        ising = named_fixture("ising")
        again = restrict(ising, LabelSet(members=(0, 1, 2)))
        assert again == ising

    def test_su24_integer_spin_subrule(self):
        rule = restrict(su2k(4), LabelSet(members=(0, 2, 4)))
        assert rule.rank == 3
        assert validate(rule).valid

    def test_unclosed_support_rejected(self):
        with pytest.raises(StructuralError):
            restrict(su2k(4), LabelSet(members=(0, 1)))

    def test_chain_restrictions_stay_valid(self, corpus):
        for name, rule in corpus.items():
            if rule.rank > 25:
                continue
            for step in central_series(rule).chain:
                assert validate(restrict(rule, step)).valid, name

    def test_closure_restrictions_stay_valid(self, corpus):
        for name, rule in corpus.items():
            if rule.rank > 25:
                continue
            for i in range(rule.rank):
                assert validate(restrict(rule, closure(rule, {i}))).valid, (name, i)


def chain_by_fixpoint(rule) -> list:
    """The descending central series from the fixpoint closure oracle."""
    chain = [set(range(rule.rank))]
    while len(chain[-1]) > 1:
        seeds = {k for i in chain[-1] for k in range(rule.rank) if rule.tensor[i, rule.dual[i], k]}
        chain.append(closure_by_fixpoint(rule, seeds))
        if chain[-1] == chain[-2]:
            break
    return [tuple(sorted(s)) for s in chain]


def assert_matches_fixpoint(rule, seeds, name=None):
    for seed in seeds:
        expected = closure_by_fixpoint(rule, seed)
        assert closure(rule, seed).members == tuple(sorted(expected)), (name, seed)
        for subset in (expected, expected - {max(expected)}, set(seed)):
            closed = closure_by_fixpoint(rule, subset) == subset
            assert is_closed(rule, subset) == closed, (name, subset)
    assert [s.members for s in central_series(rule).chain] == chain_by_fixpoint(rule), name


@st.composite
def involution_rules(draw):
    r = draw(st.integers(1, 7))
    order = draw(st.permutations(range(r)))
    swaps = draw(st.integers(0, r // 2))
    dual = list(range(r))
    for t in range(swaps):
        a, b = order[2 * t], order[2 * t + 1]
        dual[a], dual[b] = b, a
    flat = draw(st.lists(st.integers(0, 2), min_size=r**3, max_size=r**3))
    tensor = np.array(flat, dtype=np.int64).reshape(r, r, r)
    seed = draw(st.sets(st.integers(0, r - 1), max_size=r))
    return FusionRule(labels=tuple(str(x) for x in range(r)), dual=dual, tensor=tensor), seed


class TestAgainstFixpointOracle:
    """closure, is_closed and central_series against plain set saturation."""

    def test_corpus(self, corpus):
        for name, rule in corpus.items():
            assert_matches_fixpoint(rule, [set()] + [{i} for i in range(rule.rank)], name)

    @settings(max_examples=200, deadline=None)
    @given(involution_rules())
    def test_random_tensors(self, drawn):
        rule, seed = drawn
        assert_matches_fixpoint(rule, [seed])
