"""Rule and group files are written byte for byte as the standard library's
indenting JSON encoder writes them (``tests/oracles.py``)."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusionrules import (
    FusionRule,
    StructuralError,
    builtin_group,
    builtin_group_names,
    drinfeld_double,
    named_fixture,
    parse_group,
    pointed,
    product,
    su2k,
)
from fusionrules.groups import FiniteGroup
from fusionrules.io import dump_group, dump_rule

from oracles import dump_group_reference, dump_rule_reference

GROUPS_TO_Z12 = sorted(n for n in builtin_group_names() if builtin_group(n).order <= 12)


def _rule(labels, dual, tensor):
    return FusionRule(labels=tuple(labels), dual=tuple(dual), tensor=np.asarray(tensor))


def _assert_same_text(got, want):
    """Equality that reports the first differing offset: pytest's line diff
    of two texts of a megabyte runs for minutes."""
    if got != want:
        at = next((n for n, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
        pytest.fail(f"texts differ at offset {at}: {got[at - 30:at + 30]!r} != {want[at - 30:at + 30]!r}")


def _assert_same_bytes(rule):
    _assert_same_text(dump_rule(rule), dump_rule_reference(rule))


class TestDumpRule:
    def test_fixtures(self, fixture_rules):
        for rule in fixture_rules.values():
            _assert_same_bytes(rule)

    @pytest.mark.parametrize("name", GROUPS_TO_Z12)
    def test_pointed_and_double(self, name):
        group = builtin_group(name)
        _assert_same_bytes(pointed(group))
        _assert_same_bytes(drinfeld_double(group))

    def test_su2k_and_product(self, su2k_rules):
        for rule in su2k_rules.values():  # levels 1..20, ranks to 21
            _assert_same_bytes(rule)
        _assert_same_bytes(su2k(60))
        _assert_same_bytes(product(named_fixture("so8_2"), named_fixture("toric")))

    @pytest.mark.parametrize("rank", [1, 3])
    def test_all_zero_tensor(self, rank):
        rule = _rule([str(i) for i in range(rank)], range(rank), np.zeros((rank,) * 3))
        assert '"fusion": []\n}\n' in dump_rule(rule)
        _assert_same_bytes(rule)

    def test_rank_one(self):
        _assert_same_bytes(_rule(["1"], [0], [[[7]]]))

    def test_escaped_labels(self):
        labels = ['1', 'say "hi"', "back\\slash", "café", "☃", "tab\tnew\nline\x01"]
        rule = _rule(labels, [0, 2, 1, 3, 5, 4], np.arange(6**3).reshape(6, 6, 6) % 3)
        _assert_same_bytes(rule)

    def test_largest_entry(self):
        t = np.zeros((2, 2, 2), dtype=np.int64)
        t[0, 0, 0] = t[1, 1, 1] = 2**63 - 1
        rule = _rule(["1", "x"], [0, 1], t)
        assert "      9223372036854775807\n" in dump_rule(rule)
        _assert_same_bytes(rule)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 4), st.data(), st.integers(0, 2**32 - 1))
    def test_random_tensors_and_labels(self, rank, data, seed):
        labels = data.draw(st.lists(st.text(max_size=4), min_size=rank, max_size=rank))
        dual = data.draw(st.permutations(range(rank)))
        rng = np.random.default_rng(seed)
        top = int(rng.choice([1, 4, 2**20, 2**63 - 1]))
        tensor = rng.integers(0, top, size=(rank,) * 3, endpoint=True)
        tensor[rng.random(tensor.shape) < rng.random()] = 0
        _assert_same_bytes(_rule(labels, dual, tensor))


class TestDumpGroup:
    @pytest.mark.parametrize("name", sorted(builtin_group_names()))
    def test_builtin_groups(self, name):
        group = builtin_group(name)
        text = dump_group(group)
        _assert_same_text(text, dump_group_reference(group))
        assert np.array_equal(parse_group(text).table, group.table)

    def test_escaped_name(self):
        group = FiniteGroup(table=builtin_group("z2").table, name='Z/2 "café" \\ ☃')
        assert dump_group(group) == dump_group_reference(group)


class TestParseGroup:
    @pytest.mark.parametrize("name", [None, 5, {"a": 1}, ["Z2"]])
    def test_non_string_name_refused(self, name):
        doc = {"name": name, "order": 2, "table": [0, 1, 1, 0]}
        with pytest.raises(StructuralError, match="group name must be a string"):
            parse_group(json.dumps(doc))

    def test_missing_name_defaults(self):
        assert parse_group(json.dumps({"order": 1, "table": [0]})).name == "G"
