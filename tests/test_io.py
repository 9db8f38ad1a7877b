"""Rule and group files are written byte for byte as the standard library's
indenting JSON encoder writes them (``tests/oracles.py``)."""

import json
import re
import tracemalloc
from unittest import mock

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
from fusionrules import io as fio
from fusionrules.groups import FiniteGroup
from fusionrules.io import _split_records, dump_group, dump_rule, parse_rule, rule_to_dict

from oracles import dump_group_reference, dump_rule_reference, parse_rule_reference

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


ESCAPED_LABELS = ['1', 'say "hi"', "back\\slash", "café", "☃", "tab\tnew\nline\x01"]

# the bytes the mutations below insert: digits, JSON's punctuation and
# whitespace, and the characters of signs, fractions, exponents and escapes
MUTATION_ALPHABET = list("0123456789[],-.e\"\\ \n\t\r\x0b")


def _layouts(rule):
    """The layouts this package writes: ``dump_rule`` and ``json.dumps`` of
    ``rule_to_dict`` with and without indentation."""
    doc = rule_to_dict(rule)
    return [dump_rule(rule), json.dumps(doc), json.dumps(doc, indent=2)]


def _outcome(parse, text):
    try:
        return parse(text)
    except StructuralError as exc:
        return f"StructuralError: {exc}"


def _assert_same_outcome(text):
    want = _outcome(parse_rule_reference, text)
    got = _outcome(parse_rule, text)
    assert got == want, f"{got!r} != {want!r} for {text[:200]!r}"


@st.composite
def labelled_rules(draw, top=2**63 - 1):
    """Rules of rank 1 to 3 with any labels (escapes and non-ASCII included)
    and entries up to ``top``."""
    rank = draw(st.integers(1, 3))
    labels = draw(st.lists(st.text(max_size=4), min_size=rank, max_size=rank))
    dual = draw(st.permutations(range(rank)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    top = int(rng.choice([1, 4, 10**18 - 1, top]))
    tensor = rng.integers(0, top, size=(rank,) * 3, endpoint=True)
    tensor[rng.random(tensor.shape) < rng.random()] = 0
    return _rule(labels, dual, tensor)


def _parse_by_reader(text):
    """``parse_rule(text)``, failing when ``json.loads`` is handed ``text``
    itself; the record reader hands it a new string (equal to ``text`` when
    the fusion array is empty)."""
    loads = json.loads

    def guarded(doc, *args, **kwargs):
        assert doc is not text, "the whole text reached json.loads"
        return loads(doc, *args, **kwargs)

    with mock.patch.object(json, "loads", guarded):
        return parse_rule(text)


class TestParseRule:
    """``parse_rule`` reads the fusion records of the layouts this package
    writes straight from the text, and equals ``parse_rule_reference`` (one
    ``json.loads`` of the whole text) on every text: the same rule, or the
    same ``StructuralError`` message."""

    def test_written_layouts_take_the_reader(self, corpus):
        rules = list(corpus.values()) + [
            su2k(60),
            product(named_fixture("so8_2"), named_fixture("toric")),
            _rule(ESCAPED_LABELS, [0, 2, 1, 3, 5, 4], np.arange(6**3).reshape(6, 6, 6) % 3),
            _rule(["1", "x"], [0, 1], np.full((2, 2, 2), 10**18 - 1)),
            _rule(["1"], [0], np.zeros((1, 1, 1))),
        ]
        for rule in rules:
            for text in _layouts(rule):
                assert _parse_by_reader(text) == rule

    @settings(max_examples=60, deadline=None)
    @given(labelled_rules(top=10**18 - 1))
    def test_random_rules_take_the_reader(self, rule):
        for text in _layouts(rule):
            assert _parse_by_reader(text) == rule

    @settings(max_examples=60, deadline=None)
    @given(labelled_rules(), st.integers(0, 2))
    def test_layouts_match_reference(self, rule, layout):
        text = _layouts(rule)[layout]
        _assert_same_outcome(text)
        assert parse_rule(text) == rule

    @settings(max_examples=200, deadline=None)
    @given(st.data(), st.integers(0, 2))
    def test_mutations_match_reference(self, corpus, data, layout):
        small = [rule for rule in corpus.values() if rule.rank <= 12]
        rule = data.draw(st.one_of(st.sampled_from(small), labelled_rules()))
        text = _layouts(rule)[layout]
        for _ in range(data.draw(st.integers(1, 3))):
            at = data.draw(st.integers(0, len(text)))
            edit = data.draw(st.sampled_from(["replace", "insert", "delete"]))
            char = "" if edit == "delete" else data.draw(st.sampled_from(MUTATION_ALPHABET))
            text = text[:at] + char + text[at + (edit != "insert"):]
        _assert_same_outcome(text)

    @settings(max_examples=200, deadline=None)
    @given(st.data(), st.integers(0, 2), st.sampled_from([1, 7, 40]))
    def test_pieces_match_reference(self, corpus, data, layout, piece):
        """Read a few characters at a time, the reader still takes every
        written layout, and a mutated text gets the reference's outcome."""
        small = [rule for rule in corpus.values() if rule.rank <= 12]
        rule = data.draw(st.one_of(st.sampled_from(small), labelled_rules(top=10**18 - 1)))
        text = _layouts(rule)[layout]
        with mock.patch.object(fio, "_PIECE", piece):
            assert _parse_by_reader(text) == rule
            for _ in range(data.draw(st.integers(1, 3))):
                at = data.draw(st.integers(0, len(text)))
                edit = data.draw(st.sampled_from(["replace", "insert", "delete"]))
                char = "" if edit == "delete" else data.draw(st.sampled_from(MUTATION_ALPHABET))
                text = text[:at] + char + text[at + (edit != "insert"):]
            _assert_same_outcome(text)

    HEAD = '{"rank": 2, "labels": ["1", "x"], "dual": [0, 1], '
    DECLINED = {
        "leading_zero": HEAD + '"fusion": [[0, 0, 0, 1], [1, 1, 0, 01]]}',
        "exponent": HEAD + '"fusion": [[0, 0, 0, 1], [1, 1, 0, 1e0]]}',
        "fraction": HEAD + '"fusion": [[0, 0, 0, 1], [1, 1, 0, 1.0]]}',
        "minus_zero": HEAD + '"fusion": [[0, 0, 0, 1], [1, 1, 0, -0]]}',
        "split_number": HEAD + '"fusion": [[0, 0, 0, 1], [1, 1, 0, 1 2]]}',
        "vertical_tab": HEAD + '"fusion": [[0, 0, 0, 1],\x0b[1, 1, 0, 1]]}',
        "int64_max": HEAD + '"fusion": [[0, 0, 0, 1], [1, 1, 0, 9223372036854775807]]}',
        "above_int64": HEAD + '"fusion": [[0, 0, 0, 1], [1, 1, 0, 9223372036854775808]]}',
        "not_last": '{"rank": 1, "fusion": [[0, 0, 0, 1]], "dual": [0]}',
        "nested": '{"rank": 1, "dual": [0], "x": {"fusion": [[0, 0, 0, 2]]}, "fusion": [[0, 0, 0, 1]]}',
        "nested_last": '{"rank": 1, "dual": [0], "fusion": [[0, 0, 0, 1]], "x": {"fusion": [[0, 0, 0, 2]]}}',
        "duplicated": '{"rank": 1, "dual": [0], "fusion": [[0, 0, 0, 2]], "fusion": [[0, 0, 0, 1]]}',
        "escaped_key": '{"rank": 1, "dual": [0], "fusi\\u006fn": [[0, 0, 0, 1]]}',
        "escaped_quote": '{"rank": 1, "dual": [0], "fusi\\u006fn": [], "a\\"fusion": [[0, 0, 0, 2]]}',
        "byte_order_mark": "\ufeff" + HEAD + '"fusion": [[0, 0, 0, 1]]}',
        "digit_after_last": HEAD + '"fusion": [[0, 0, 0, 1], [1, 1, 0, 1] 5]}',
        "comma_after_last": HEAD + '"fusion": [[0, 0, 0, 1], [1, 1, 0, 1],]}',
        "digit_between": HEAD + '"fusion": [[0, 0, 0, 1] 5, [1, 1, 0, 1]]}',
        "bracket_between": HEAD + '"fusion": [[0, 0, 0, 1]] [1, 1, 0, 1]]}',
    }

    @pytest.mark.parametrize("name", sorted(DECLINED))
    def test_declined_texts_match_reference(self, name):
        text = self.DECLINED[name]
        _assert_same_outcome(text)
        _assert_same_outcome(text.encode("utf-8"))

    def test_reader_peak_is_below_twice_the_text(self):
        # su2k(60): a 2.0 MB text, about 30 pieces; its rows take 1.3 MB
        text = dump_rule(su2k(60))
        parse_rule(text)
        tracemalloc.start()
        try:
            parse_rule(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * len(text)

    @pytest.mark.parametrize("piece", [1, 7])
    def test_declined_texts_in_pieces(self, piece):
        with mock.patch.object(fio, "_PIECE", piece):
            for text in self.DECLINED.values():
                _assert_same_outcome(text)

    def test_bad_records_are_refused_before_the_cube(self):
        # a rank-400 int64 cube is 488 MiB; the second record fails first
        dual = json.dumps(list(range(400)))
        fusion = '"fusion": [[0, 0, 0, 1], [0, 1, 1, 0]]'
        texts = {
            "reader": f'{{"rank": 400, "dual": {dual}, {fusion}}}',
            "json.loads": f'{{{fusion}, "rank": 400, "dual": {dual}}}',
        }
        message = re.escape("fusion record [0, 1, 1, 0] must have multiplicity >= 1")
        for path, text in texts.items():
            assert (_split_records(text) is not None) == (path == "reader"), path
            tracemalloc.start()
            try:
                with pytest.raises(StructuralError, match=message):
                    parse_rule(text)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2**20, path

    def test_int64_bound_is_exact(self):
        assert parse_rule(self.DECLINED["int64_max"]).tensor[1, 1, 0] == 2**63 - 1
        with pytest.raises(StructuralError, match="above 2..63 - 1"):
            parse_rule(self.DECLINED["above_int64"])


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
