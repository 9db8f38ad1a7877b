"""The interpreted kernels and the associativity defect, checked against
independent references."""

import itertools
from dataclasses import replace

import numpy as np
import pytest

from fusionrules import _kernels, named_fixture, su2k
from fusionrules.core import _associativity_defects
from fusionrules.explorer import _involutions, _prepare, _representative

from oracles import search_tensors_reference


def test_assoc_defect_zero_on_valid_rules():
    for rule in (named_fixture("ising"), named_fixture("so8_2"), su2k(5)):
        assert not list(_associativity_defects(rule.tensor))


def test_assoc_defect_catches_breakage():
    t = np.array(named_fixture("ising").tensor)
    t[1, 1, 2] = 2
    assert list(_associativity_defects(t))


def test_power_radius_matches_eigensolver():
    for rule in (su2k(7), named_fixture("so8_2"), named_fixture("fibonacci")):
        for i in range(rule.rank):
            mat = rule.tensor[i].astype(np.float64)
            radius, resid, _, _ = _kernels.power_radius(mat, 1e-8, 10 ** 6)
            assert resid <= 1e-8
            expected = max(abs(np.linalg.eigvals(mat)))
            assert abs(radius - expected) < 1e-7


def test_power_radius_handles_periodic_matrices():
    # the spin-1/2 fusion matrix is bipartite; the shift keeps iteration stable
    mat = su2k(9).tensor[1].astype(np.float64)
    radius, resid, _, _ = _kernels.power_radius(mat, 1e-8, 10 ** 6)
    assert resid <= 1e-8
    assert abs(radius - 2 * np.cos(np.pi / 11)) < 1e-7


@pytest.mark.parametrize(
    "rank,max_mult,bare_axioms",
    [(3, 2, False), (4, 1, False), (4, 2, False), (4, 3, False),
     (3, 2, True), (3, 3, True), (4, 1, True)],
)
def test_search_matches_reference(rank, max_mult, bare_axioms):
    # the same plans on both sides, without the lex-leader symmetries, which
    # the reference does not apply: compiled index tuples and forced values
    # against the m loop over every value
    for dual in _involutions(rank):
        plan = replace(_prepare(rank, dual, bare_axioms), symmetries=[])
        expected = search_tensors_reference(plan, max_mult, rank)
        assert len(expected), dual
        assert _kernels.search_tensors(plan, max_mult, rank) == expected, dual


class _CountedCells(tuple):
    """An orbit's other cells; the search passes over them once per value it
    writes, so the passes count its nodes."""

    passes = 0

    def __iter__(self):
        _CountedCells.passes += 1
        return super().__iter__()


def _search_nodes(plan, max_mult, rank):
    """The solutions and the number of values written (nodes) of a search."""
    plan = replace(plan, orbit_b=[_CountedCells(b) for b in plan.orbit_b])
    _CountedCells.passes = 0
    _kernels.search_tensors(plan, -1, rank)  # compiles, then writes no value
    setup = _CountedCells.passes
    _CountedCells.passes = 0
    solutions = _kernels.search_tensors(plan, max_mult, rank)
    return solutions, _CountedCells.passes - setup


@pytest.mark.parametrize("pairs,forced,unforced", [(0, 16237, 38108), (1, 648, 1468)])
def test_forced_values_skip_only_failing_values(monkeypatch, pairs, forced, unforced):
    # a quadruple linear in the next orbit's value admits at most one value;
    # the node counts pin how many failing values that skips at r4 m3
    plan = _prepare(4, _representative(4, pairs), False)
    solutions, nodes = _search_nodes(plan, 3, 4)
    monkeypatch.setattr(_kernels, "FORCING_CANDIDATES", 0)
    assert _search_nodes(plan, 3, 4) == (solutions, unforced)
    assert nodes == forced


# every class representative at ranks 2-5; the bare-axiom rank-5 self-dual
# search is left out, since the unpruned reference takes minutes there
LEX_CASES = [
    (rank, max_mult, bare_axioms, pairs)
    for rank, max_mult, bare_axioms in [
        (2, 3, False), (2, 3, True), (3, 3, False), (3, 3, True),
        (4, 2, False), (4, 3, False), (4, 1, True), (5, 1, False), (5, 1, True),
    ]
    for pairs in range((rank - 1) // 2 + 1)
    if (rank, bare_axioms, pairs) != (5, True, 0)
]


@pytest.mark.parametrize("rank,max_mult,bare_axioms,pairs", LEX_CASES)
def test_lex_leader_search_matches_filtered_reference(rank, max_mult, bare_axioms, pairs):
    # the kernel prunes partial tensors; the reference searches everything and
    # the lex-leader condition is applied to the complete tensors afterwards
    dual = _representative(rank, pairs)
    plan = _prepare(rank, dual, bare_axioms)
    assert len(plan.symmetries) == sum(
        1 for p in itertools.permutations(range(1, rank))
        if all(p[dual[a] - 1] == dual[p[a - 1]] for a in range(1, rank))
    ) - 1
    expected = [
        t for t in search_tensors_reference(_prepare(rank, dual, bare_axioms), max_mult, rank)
        if all(t <= tuple(t[c] for c in p) for p in plan.symmetries)
    ]
    assert expected
    assert _kernels.search_tensors(plan, max_mult, rank) == expected
