"""The interpreted kernels and the associativity defect, checked against
independent references."""

import numpy as np
import pytest

from fusionrules import _kernels, named_fixture, su2k
from fusionrules.core import _associativity_defects
from fusionrules.explorer import _involutions, _prepare

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
    [(3, 2, False), (4, 1, False), (4, 2, False), (3, 2, True), (4, 1, True)],
)
def test_search_matches_reference(rank, max_mult, bare_axioms):
    # the same plans on both sides: compiled index tuples against the m loop
    for dual in _involutions(rank):
        plan = _prepare(rank, dual, bare_axioms)
        expected = search_tensors_reference(plan, max_mult, rank)
        assert len(expected), dual
        assert _kernels.search_tensors(plan, max_mult, rank) == expected, dual
