import hashlib
import itertools
import json
import random

import numpy as np
import pytest

from fusionrules import (
    CapacityError,
    EnumSpec,
    NumericalError,
    StructuralError,
    _kernels,
    enumerate_rules,
    explorer,
    is_acyclic,
    survey,
    validate,
)
from fusionrules.explorer import _involutions, _prepare, _representative

from oracles import naive_census, survey_reference

# labeled-rule counts, verified against the unpruned census (rank <= 3) and
# frozen as regression values beyond that
KNOWN_COUNTS = {
    (1, 2): 1,
    (2, 0): 1,
    (2, 1): 2,
    (2, 2): 3,
    (3, 1): 7,
    (3, 2): 13,
    (4, 1): 34,
    (4, 2): 121,
    (4, 3): 250,
    (5, 1): 198,
    (5, 2): 776,
}

# sha256 over the emitted stream, json(dual) + tensor bytes per rule, recorded
# from the search that re-derived each quadruple's flat indices per check (the
# rank-4 entries) and from the search of every dual map without relabelling
# (the others).
STREAM_HASHES = {
    (4, 2, False): "57801e140c0e3d84784485f05c1d11d5f982040cc4f0221604417b8e030d1451",
    (4, 1, True): "de9bc3caa433d5eba9eb764d08261700dc7bf5b23e35fad5c1b606e8e01c2613",
    (4, 3, False): "bcb35f371f7703a1c12eb49207ebb2fda793986861c890d21c533be26e83e088",
    (5, 1, False): "073f757519f57aee35688453d754b03f6ad6f3dc8960aa5d461779cc075d9ddb",
    (5, 2, False): "d070c2cd6f67dd4ed96df0385ae1772a9cfd69b5f43ae95038e8376db852f2e8",
}

# associativity quadruples per dual map at rank 4 after the mirror dedupe
# (108 per dual before it), the same with and without bare axioms
RANK4_QUADS = {(0, 1, 2, 3): 72, (0, 1, 3, 2): 57, (0, 2, 1, 3): 57, (0, 3, 2, 1): 57}


def census(request, spec):
    """The rules of ``spec`` in stream order; r5 m2 from its session fixture."""
    if spec == EnumSpec(rank=5, max_mult=2):
        return request.getfixturevalue("r5m2_rules")
    return enumerate_rules(spec)


def as_key(rule):
    return rule.dual, rule.tensor.tobytes()


def orbit_cells(plan):
    """The cells of each free orbit of a plan, its representative first."""
    return [(a, *others) for a, others in zip(plan.orbit_a, plan.orbit_b)]


def orbit_pos(plan):
    """The orbit of each flat cell, -1 for forced cells."""
    pos = np.full(len(plan.base), -1)
    for t, cells in enumerate(orbit_cells(plan)):
        pos[list(cells)] = t
    return pos


def assert_reciprocity_orbits(rule, name=None):
    # N_ij^k = N_{j k*}^{i*} = N_{j* i*}^{k*}, the two maps the search's orbits
    # are closed under
    N, d = rule.tensor, np.array(rule.dual)
    i, j, k = np.indices(N.shape)
    assert np.array_equal(N, N[j, d[k], d[i]]), name
    assert np.array_equal(N, N[d[j], d[i], d[k]]), name


class TestEnumerate:
    def test_rank_one_is_trivial(self):
        rules = list(enumerate_rules(EnumSpec(rank=1)))
        assert len(rules) == 1
        assert rules[0].rank == 1

    def test_rank_two_census(self):
        rules = list(enumerate_rules(EnumSpec(rank=2, max_mult=2)))
        assert len(rules) == 3
        self_channels = sorted(int(r.tensor[1, 1, 1]) for r in rules)
        assert self_channels == [0, 1, 2]
        assert sum(is_acyclic(r) for r in rules) == 1

    def test_rank_two_mult_zero(self):
        rules = list(enumerate_rules(EnumSpec(rank=2, max_mult=0)))
        assert len(rules) == 1
        assert rules[0].tensor[1, 1, 1] == 0

    @pytest.mark.parametrize("rank,max_mult", [(1, 2), (2, 1), (2, 2), (3, 1), (3, 2)])
    def test_matches_unpruned_census(self, rank, max_mult):
        fast = {as_key(r) for r in enumerate_rules(EnumSpec(rank=rank, max_mult=max_mult))}
        assert fast == naive_census(rank, max_mult)

    @pytest.mark.parametrize("rank,max_mult", sorted(KNOWN_COUNTS))
    def test_known_counts(self, rank, max_mult, request):
        n = sum(1 for _ in census(request, EnumSpec(rank=rank, max_mult=max_mult)))
        assert n == KNOWN_COUNTS[(rank, max_mult)]

    def test_everything_emitted_is_valid(self):
        for rule in enumerate_rules(EnumSpec(rank=3, max_mult=2)):
            assert validate(rule).valid

    def test_no_duplicates_and_lexicographic_order(self):
        rules = list(enumerate_rules(EnumSpec(rank=4, max_mult=1)))
        flats = [tuple(r.tensor.reshape(-1)) for r in rules]
        assert len(set(flats)) == len(flats)
        assert flats == sorted(flats)

    def test_limit(self):
        for limit in (0, 5):
            rules = list(enumerate_rules(EnumSpec(rank=3, max_mult=2, limit=limit)))
            assert len(rules) == limit

    def test_dual_map_restriction(self):
        swap = (0, 2, 1)
        rules = list(enumerate_rules(EnumSpec(rank=3, max_mult=2, dual_maps=(swap,))))
        assert rules
        assert all(r.dual == swap for r in rules)
        everything = list(enumerate_rules(EnumSpec(rank=3, max_mult=2)))
        assert len(rules) == sum(1 for r in everything if r.dual == swap)

    @pytest.mark.parametrize("rank,max_mult,dual", [(4, 2, (0, 1, 3, 2)), (5, 1, (0, 1, 4, 3, 2))])
    def test_non_representative_dual_map(self, rank, max_mult, dual):
        # the map is searched through its class representative and relabelled
        assert dual != _representative(rank, 1)
        rules = [as_key(r) for r in enumerate_rules(EnumSpec(rank, max_mult, dual_maps=(dual,)))]
        everything = enumerate_rules(EnumSpec(rank, max_mult))
        assert rules
        assert rules == [as_key(r) for r in everything if r.dual == dual]

    def test_one_representative_per_isomorphism_class(self):
        # canonical form: the least (dual, tensor) over every relabelling,
        # with new label b the old label q[b]
        def canonical(rule):
            forms = []
            for q in itertools.permutations(range(1, 4)):
                q = (0, *q)
                p = np.argsort(q)
                dual = tuple(int(p[rule.dual[a]]) for a in q)
                forms.append((dual, rule.tensor[np.ix_(q, q, q)].tobytes()))
            return min(forms)

        classes = {canonical(r) for r in enumerate_rules(EnumSpec(rank=4, max_mult=2))}
        plans = [_prepare(4, _representative(4, p), False) for p in (0, 1)]
        reps = sum(len(_kernels.search_tensors(plan, 2, 4)) for plan in plans)
        assert len(classes) == reps == 27

    def test_bad_dual_map_rejected(self):
        with pytest.raises(StructuralError):
            EnumSpec(rank=3, dual_maps=((0, 1, 1),))
        with pytest.raises(StructuralError):
            EnumSpec(rank=3, dual_maps=((1, 0, 2),))

    @pytest.mark.parametrize("bare_axioms", [False, True])
    def test_repeated_dual_map_rejected(self, bare_axioms):
        with pytest.raises(StructuralError, match="repeated"):
            EnumSpec(rank=3, dual_maps=((0, 2, 1), (0, 2, 1)), bare_axioms=bare_axioms)
        with pytest.raises(StructuralError, match="repeated"):
            EnumSpec(rank=4, dual_maps=((0, 1, 2, 3), (0, 2, 1, 3), [0, 1, 2, 3]))

    def test_caps(self):
        with pytest.raises(CapacityError):
            EnumSpec(rank=6)
        with pytest.raises(CapacityError):
            EnumSpec(rank=2, max_mult=4)
        EnumSpec(rank=6, max_mult=1, allow_large=True)

    def test_bare_axioms_supersets_default(self):
        for rank, max_mult in [(2, 2), (3, 1), (3, 2)]:
            strict = {as_key(r) for r in enumerate_rules(
                EnumSpec(rank=rank, max_mult=max_mult, bare_axioms=True))}
            default = {as_key(r) for r in enumerate_rules(
                EnumSpec(rank=rank, max_mult=max_mult))}
            assert default <= strict
            assert strict == naive_census(rank, max_mult, strict=True)

    @pytest.mark.parametrize("rank,max_mult,bare_axioms", sorted(STREAM_HASHES))
    def test_frozen_stream_hash(self, rank, max_mult, bare_axioms, request):
        digest = hashlib.sha256()
        for rule in census(request, EnumSpec(rank, max_mult, bare_axioms=bare_axioms)):
            digest.update(json.dumps(list(rule.dual)).encode() + rule.tensor.tobytes())
        assert digest.hexdigest() == STREAM_HASHES[(rank, max_mult, bare_axioms)]

    @pytest.mark.parametrize("bare_axioms", [False, True])
    def test_dropped_quadruples_have_mirror_in_same_bucket(self, bare_axioms):
        r = 4
        for dual in _involutions(r):
            plan = _prepare(r, dual, bare_axioms)
            pos = orbit_pos(plan)
            bucket = {q[1:]: q[0] for q in plan.quads}
            assert len(bucket) == len(plan.quads) == RANK4_QUADS[dual]
            for i, j, k, l in np.ndindex(r, r, r, r):
                if 0 in (i, j, k) or (i, j, k, l) in bucket:
                    continue
                cells = [
                    cell
                    for m in range(r)
                    for cell in ((i, j, m), (m, k, l), (j, k, m), (i, m, l))
                ]
                trigger = max(pos[np.ravel_multi_index(c, (r, r, r))] for c in cells)
                mirror = (dual[k], dual[j], dual[i], dual[l])
                assert mirror < (i, j, k, l)
                assert bucket[mirror] == trigger

    @pytest.mark.parametrize("bare_axioms", [False, True])
    def test_every_quadruple_has_completing_orbit(self, bare_axioms):
        # no quadruple is decided by forced cells alone, so the plan needs no
        # check before the search
        for r in range(2, 6):
            for dual in _involutions(r):
                plan = _prepare(r, dual, bare_axioms)
                pos = orbit_pos(plan)
                for t, i, j, k, l in plan.quads:
                    cells = [
                        np.ravel_multi_index(c, (r, r, r))
                        for m in range(r)
                        for c in ((i, j, m), (m, k, l), (j, k, m), (i, m, l))
                    ]
                    assert t >= 0
                    assert t == max(pos[cells])

    @pytest.mark.parametrize("r", [2, 3, 4, 5])
    def test_orbits_close_under_mirror_and_reciprocity(self, r):
        # default mode: the orbits partition the free cells and are closed
        # under both maps; bare axioms: exactly the dual-mirror pairs
        def flat(i, j, k):
            return (i * r + j) * r + k

        for dual in _involutions(r):
            mirror = {flat(i, j, k): flat(dual[j], dual[i], dual[k])
                      for i, j, k in itertools.product(range(r), repeat=3)}
            reciprocity = {flat(i, j, k): flat(j, dual[k], dual[i])
                           for i, j, k in itertools.product(range(r), repeat=3)}
            for bare_axioms in (False, True):
                plan = _prepare(r, dual, bare_axioms)
                free = [c for c, x in enumerate(plan.base) if x == -1]
                orbits = orbit_cells(plan)
                assert sorted(c for cells in orbits for c in cells) == free
                assert plan.orbit_a == sorted(plan.orbit_a)
                assert all(cells[0] == min(cells) for cells in orbits)
                if bare_axioms:
                    pairs = {tuple(sorted({c, mirror[c]})) for c in free}
                    assert sorted(tuple(sorted(cells)) for cells in orbits) == sorted(pairs)
                else:
                    for cells in orbits:
                        assert {mirror[c] for c in cells} == set(cells)
                        assert {reciprocity[c] for c in cells} == set(cells)

    def test_bare_axioms_rank3_counts(self):
        assert sum(1 for _ in enumerate_rules(EnumSpec(rank=3, max_mult=1, bare_axioms=True))) == 9
        assert sum(1 for _ in enumerate_rules(EnumSpec(rank=3, max_mult=2, bare_axioms=True))) == 21


class TestReciprocityOrbits:
    """The premise of the default-mode orbits, checked on rules the search did
    not impose them on, as well as on a census."""

    def test_corpus(self, corpus):
        unique = [
            (name, rule) for name, rule in corpus.items()
            if np.count_nonzero(rule.tensor[:, :, 0]) == rule.rank and validate(rule).valid
        ]
        assert len(unique) == len(corpus)
        for name, rule in unique:
            assert_reciprocity_orbits(rule, name)

    def test_bare_axiom_census_with_unique_vacuum(self):
        # the bare-axiom search orbits are only the mirror pairs
        unique = [
            rule for rule in enumerate_rules(EnumSpec(rank=4, max_mult=1, bare_axioms=True))
            if np.count_nonzero(rule.tensor[:, :, 0]) == rule.rank
        ]
        assert len(unique) == KNOWN_COUNTS[(4, 1)]
        for rule in unique:
            assert_reciprocity_orbits(rule)

    def test_rank4_census(self):
        for rule in enumerate_rules(EnumSpec(rank=4, max_mult=3)):
            assert_reciprocity_orbits(rule)


class TestSurvey:
    def test_rank_one(self):
        result = survey(EnumSpec(rank=1))
        assert result.total == 1
        assert result.acyclic_count == 1
        assert result.class_histogram == {0: 1}

    def test_rank_two(self):
        result = survey(EnumSpec(rank=2, max_mult=2))
        assert result.total == 3
        assert result.acyclic_count == 1
        assert result.nilpotent_count == 1
        assert not result.disagreements
        assert not result.weak_integrality_failures
        assert result.class_histogram == {1: 1}

    def test_rank_three(self):
        result = survey(EnumSpec(rank=3, max_mult=1))
        assert result.total == 7
        assert result.acyclic_count == 3
        assert result.clean

    def test_rank_four_regression(self):
        result = survey(EnumSpec(rank=4, max_mult=2))
        assert result.total == 121
        assert result.acyclic_count == result.nilpotent_count == 7
        assert result.clean
        assert result.class_histogram == {1: 4, 2: 3}

    def test_bare_axioms_survey_clean(self):
        result = survey(EnumSpec(rank=3, max_mult=2, bare_axioms=True))
        assert result.total == 21
        assert result.clean

    def test_rank_five_multiplicity_two(self, replay_r5m2):
        # recorded from the survey that analysed every labelled rule
        result = survey(EnumSpec(rank=5, max_mult=2))
        assert result.total == result.unique_vacuum_count == 776
        assert result.acyclic_count == result.nilpotent_count == 22
        assert result.class_histogram == {1: 6, 2: 16}
        assert result.clean


def _shuffled_duals(rank, seed):
    duals = _involutions(rank)
    random.Random(seed).shuffle(duals)
    return tuple(duals)


SURVEY_SPECS = {
    "r4m3-shuffled-duals": EnumSpec(rank=4, max_mult=3, dual_maps=_shuffled_duals(4, 13)),
    "r5m1": EnumSpec(rank=5, max_mult=1),
    "r4m2-limit50": EnumSpec(rank=4, max_mult=2, limit=50),
    "r3m2-bare": EnumSpec(rank=3, max_mult=2, bare_axioms=True),
    "r4m1-bare": EnumSpec(rank=4, max_mult=1, bare_axioms=True),
}

# isomorphism classes (relabellings fixing the vacuum, dual map included)
CLASS_COUNTS = {
    "r4m2": (EnumSpec(rank=4, max_mult=2), 27),
    "r4m3": (EnumSpec(rank=4, max_mult=3), 51),
    "r5m1": (EnumSpec(rank=5, max_mult=1), 16),
    "r5m2": (EnumSpec(rank=5, max_mult=2), 53),
    # 18 if the dual map were left out of the class key
    "r4m1-bare": (EnumSpec(rank=4, max_mult=1, bare_axioms=True), 21),
}


def isomorphic(a, b):
    """Whether some relabelling fixing 0 takes rule ``a`` to rule ``b``."""
    if a.rank != b.rank:
        return False
    for rest in itertools.permutations(range(1, a.rank)):
        p = (0, *rest)
        if all(p[a.dual[x]] == b.dual[p[x]] for x in range(a.rank)) and np.array_equal(
            a.tensor, b.tensor[np.ix_(p, p, p)]
        ):
            return True
    return False


class TestSurveyPerClass:
    @pytest.mark.parametrize("name", sorted(SURVEY_SPECS))
    def test_matches_per_rule_reference(self, name):
        spec = SURVEY_SPECS[name]
        assert survey(spec) == survey_reference(spec)

    def test_lists_every_labelled_rule_of_a_failing_class(self, monkeypatch):
        # with acyclicity inverted every rule disagrees and the non-weakly
        # integral classes fail integrality; each labelled rule is listed
        real = explorer.is_acyclic
        monkeypatch.setattr(explorer, "is_acyclic", lambda rule: not real(rule))
        spec = EnumSpec(rank=4, max_mult=2)
        result = survey(spec)
        assert len(result.disagreements) == 121
        assert result.weak_integrality_failures
        assert result == survey_reference(spec)

    @pytest.mark.parametrize("name", sorted(CLASS_COUNTS))
    def test_each_analysis_runs_once_per_class(self, monkeypatch, replay_r5m2, name):
        spec, classes = CLASS_COUNTS[name]
        calls = {}
        for analysis in ("fp_dimensions", "central_series", "is_acyclic"):
            real = getattr(explorer, analysis)

            def counted(*args, _real=real, _name=analysis, **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(explorer, analysis, counted)
        survey(spec)
        assert calls == {"fp_dimensions": classes, "central_series": classes,
                         "is_acyclic": classes}

    def test_numerical_error_names_first_rule_of_its_class(self, monkeypatch):
        spec = EnumSpec(rank=4, max_mult=3)
        rules = list(enumerate_rules(spec))
        target = rules[200]
        first = next(rule for rule in rules if isomorphic(rule, target))
        assert first != target and first != rules[0]
        real = explorer.fp_dimensions

        def failing(rule):
            if isomorphic(rule, target):
                raise NumericalError("no convergence")
            return real(rule)

        monkeypatch.setattr(explorer, "fp_dimensions", failing)
        with pytest.raises(NumericalError) as info:
            survey(spec)
        assert info.value.rule == first

