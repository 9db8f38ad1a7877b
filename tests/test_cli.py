import hashlib
import json

import numpy as np
import pytest

from fusionrules import (
    EnumSpec,
    StructuralError,
    _kernels,
    cli,
    core,
    enumerate_rules,
    named_fixture,
    parse_rule,
    pointed,
    su2k,
    validate,
)
from fusionrules.cli import main
from fusionrules.groups import alternating, builtin_group, cyclic
from fusionrules.io import dot_graph, dump_group, dump_rule, parse_group

from oracles import parse_rule_reference
from test_generators import MORE_DOUBLE_HASHES, _double_hash

# sha256 over the sorted conftest corpus of name + "\n" + DOT text, recorded
# from the adjoint graph built before it shared its adjacency with find_cycle
CORPUS_DOT_SHA256 = "5c0035049f9f2dfd40a6163e232dd5795b71560939a8a3035c879ddfcb6d17c3"

# sha256 of stdout, recorded from the survey that analysed every labelled rule
SURVEY_STDOUT_SHA256 = {
    "--rank 4 --max-mult 3 --survey --json":
        "35b26de3eb8cff01d3796d7f16ab7d744e82dd52b56a4aebdfbb6922ab82cc86",
    "--rank 3 --max-mult 2 --bare-axioms --survey":
        "d2de793e78e0d43d59d9052b1d8af1249461e551a65369299bff849241d7e7f4",
}

# sha256 of stdout, recorded from the rule files written by json.dumps(..., indent=2)
WRITE_STDOUT_SHA256 = {
    "gen su2k 20": "246763e86c2e7e69272627cc1864319cfe9b105e3e1a7942208a291783041e1f",
    "gen double --group s3": "4eeecd415aeb286d4a5bac36a8942e2f62f9bd6b00a78f8e0afd3597515a9f13",
    "enumerate --rank 4 --max-mult 2":
        "17b26f43b24c593e32b0f93d7193e574b4897118a6aca705750d7ab3bb39e3ce",
    "enumerate --rank 3 --max-mult 2 --bare-axioms":
        "99505dc3a629619f25bd724c9ce78f96e1d8f5441b72c70bbea1882b4a5f6f2f",
}


@pytest.fixture()
def ising_path(tmp_path):
    path = tmp_path / "ising.rule"
    path.write_text(dump_rule(named_fixture("ising")), encoding="utf-8")
    return str(path)


class TestValidateCommand:
    def test_valid_exit_zero(self, ising_path, capsys):
        assert main(["validate", ising_path]) == 0
        assert "valid" in capsys.readouterr().out

    def test_axiom_violation_exit_one(self, tmp_path, capsys):
        doc = {"rank": 2, "dual": [0, 1],
               "fusion": [[0, 0, 0, 1], [0, 1, 1, 1], [1, 0, 1, 1], [1, 1, 0, 2]]}
        path = tmp_path / "bad.rule"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["validate", str(path)]) == 1
        assert "vacuum_multiplicity" in capsys.readouterr().out

    def test_duplicate_record_exit_two(self, tmp_path, capsys):
        doc = {"rank": 1, "dual": [0], "fusion": [[0, 0, 0, 1], [0, 0, 0, 1]]}
        path = tmp_path / "dup.rule"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["validate", str(path)]) == 2
        assert "duplicate" in capsys.readouterr().err

    def test_capacity_exit_two(self, tmp_path, capsys):
        doc = {"rank": 2, "dual": [0, 1],
               "fusion": [[0, 0, 0, 1], [0, 1, 1, 1], [1, 0, 1, 1], [1, 1, 0, 1], [1, 1, 1, 2**31]]}
        path = tmp_path / "huge.rule"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["validate", str(path)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert "2**63 - 1" in err and "Traceback" not in err

    def test_multiplicity_beyond_int64_exit_two(self, tmp_path, capsys):
        doc = {"rank": 2, "dual": [0, 1],
               "fusion": [[0, 0, 0, 1], [0, 1, 1, 1], [1, 0, 1, 1], [1, 1, 0, 1], [1, 1, 1, 2**70]]}
        path = tmp_path / "overflow.rule"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["validate", str(path)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert "2**63 - 1" in err and "Traceback" not in err

    def test_memory_error_exit_two(self, tmp_path, capsys):
        # a rank-100000 tensor needs 7.11 PiB, beyond any address space
        doc = {"rank": 100000, "dual": list(range(100000)), "fusion": []}
        path = tmp_path / "vast.rule"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["validate", str(path)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert "memory" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "doc",
        [
            {"rank": True, "dual": [0], "fusion": [[0, 0, 0, 1]]},
            {"rank": 2, "dual": [0, True], "fusion": [[0, 0, 0, 1]]},
            {"rank": 1, "dual": [0], "fusion": [[0, 0, 0, True]]},
            {"rank": 1, "labels": [7], "dual": [0], "fusion": [[0, 0, 0, 1]]},
        ],
    )
    def test_json_booleans_and_non_string_labels_exit_two(self, tmp_path, capsys, doc):
        # JSON true is a Python bool, which isinstance(..., int) accepts
        path = tmp_path / "bool.rule"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["validate", str(path)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert "Traceback" not in err

    def test_parse_error_exit_two(self, tmp_path):
        path = tmp_path / "nj.rule"
        path.write_text("not json", encoding="utf-8")
        assert main(["validate", str(path)]) == 2

    def test_missing_file_exit_two(self, tmp_path):
        assert main(["validate", str(tmp_path / "nope.rule")]) == 2

    def test_json_output(self, ising_path, capsys):
        assert main(["validate", ising_path, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {"valid", "violations"}
        assert doc["valid"] is True


def _valid_records(count=1000, rank=11):
    """``count`` distinct in-range records of a rank-``rank`` rule file."""
    return [[n // rank**2, n // rank % rank, n % rank, n % 3 + 1] for n in range(count)]


# Each file holds 1,000 valid rank-11 records and then these.  The stderr lines
# were recorded from the per-record parser that the array checks replaced.
PARSE_FAULTS = {
    "not_a_list": ([7], "fusion record 7 is not a list of 4 integers"),
    "wrong_length": ([[10, 10, 10]], "fusion record [10, 10, 10] is not a list of 4 integers"),
    "boolean": ([[10, 10, 10, True]],
                "fusion record [10, 10, 10, True] is not a list of 4 integers"),
    "float": ([[10, 10, 10, 1.0]], "fusion record [10, 10, 10, 1.0] is not a list of 4 integers"),
    "index_out_of_range": ([[10, 11, 0, 1]],
                           "fusion record [10, 11, 0, 1] has indices out of range"),
    "zero_multiplicity": ([[10, 10, 10, 0]],
                          "fusion record [10, 10, 10, 0] must have multiplicity >= 1"),
    "above_int64": ([[10, 10, 10, 2**63]],
                    "fusion record [10, 10, 10, 9223372036854775808] has a multiplicity "
                    "above 2**63 - 1"),
    "duplicate": ([[0, 0, 5, 2]], "duplicate fusion record for (0,0,5)"),
    "zero_then_not_a_list": ([[10, 10, 10, 0], "x"],
                             "fusion record [10, 10, 10, 0] must have multiplicity >= 1"),
    "not_a_list_then_out_of_range": ([None, [11, 0, 0, 1]],
                                     "fusion record None is not a list of 4 integers"),
    "above_int64_then_duplicate": ([[10, 10, 9, 2**64], [0, 0, 1, 1]],
                                   "fusion record [10, 10, 9, 18446744073709551616] has a "
                                   "multiplicity above 2**63 - 1"),
    "duplicate_then_float": ([[0, 1, 0, 1], [10, 10, 10, 0.5]],
                             "duplicate fusion record for (0,1,0)"),
    "out_of_range_then_above_int64": ([[-1, 0, 0, 1], [10, 10, 10, 2**63]],
                                      "fusion record [-1, 0, 0, 1] has indices out of range"),
    "huge_index_then_zero": ([[2**64, 0, 0, 1], [10, 10, 10, 0]],
                             "fusion record [18446744073709551616, 0, 0, 1] has indices "
                             "out of range"),
    "duplicate_of_a_duplicate": ([[10, 10, 10, 1], [10, 10, 10, 2]],
                                 "duplicate fusion record for (10,10,10)"),
}


class TestParseErrors:
    @pytest.mark.parametrize("name", sorted(PARSE_FAULTS))
    def test_first_failing_record_named(self, tmp_path, capsys, name):
        tail, message = PARSE_FAULTS[name]
        doc = {"rank": 11, "dual": list(range(11)), "fusion": _valid_records() + tail}
        path = tmp_path / f"{name}.rule"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["validate", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("indent", [None, 2])
    @pytest.mark.parametrize("name", sorted(PARSE_FAULTS))
    def test_both_layouts_name_the_same_record(self, name, indent):
        # the faults in plain records are found by the record reader, the
        # others by json.loads; both must name the record the reference names
        tail, message = PARSE_FAULTS[name]
        doc = {"rank": 11, "dual": list(range(11)), "fusion": _valid_records() + tail}
        text = json.dumps(doc, indent=indent)
        for parse in (parse_rule, parse_rule_reference):
            with pytest.raises(StructuralError) as info:
                parse(text)
            assert str(info.value) == message

    def test_valid_records_parse_to_the_tensor(self):
        records = _valid_records()
        doc = {"rank": 11, "dual": list(range(11)), "fusion": records}
        tensor = parse_rule(json.dumps(doc)).tensor
        assert np.count_nonzero(tensor) == len(records)
        assert all(tensor[i, j, k] == mult for i, j, k, mult in records)


class TestAnalyzeCommand:
    def test_so8_2(self, tmp_path, capsys):
        path = tmp_path / "so8.rule"
        path.write_text(dump_rule(named_fixture("so8_2")), encoding="utf-8")
        assert main(["analyze", str(path)]) == 0
        out = capsys.readouterr().out
        assert "rank: 11" in out
        assert "acyclic: yes" in out
        assert "global dim: 32" in out
        assert "agree" in out

    def test_fibonacci_witness(self, tmp_path, capsys):
        path = tmp_path / "fib.rule"
        path.write_text(dump_rule(named_fixture("fibonacci")), encoding="utf-8")
        assert main(["analyze", str(path)]) == 0
        out = capsys.readouterr().out
        assert "acyclic: no" in out
        assert "tau -> tau" in out
        assert "nilpotent: no" in out

    def test_pointed_dims(self, tmp_path, capsys):
        path = tmp_path / "z2.rule"
        path.write_text(dump_rule(pointed(builtin_group("z2"))), encoding="utf-8")
        assert main(["analyze", str(path)]) == 0
        out = capsys.readouterr().out
        assert "class 1" in out
        assert "integral: yes" in out

    def test_invalid_rule_exit_one(self, tmp_path, capsys):
        doc = {"rank": 2, "dual": [0, 1],
               "fusion": [[0, 0, 0, 1], [0, 1, 1, 1], [1, 0, 1, 1], [1, 1, 0, 2]]}
        path = tmp_path / "bad.rule"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["analyze", str(path)]) == 1

    @pytest.mark.parametrize("tolerance", ["nan", "inf", "0", "-1e-6"])
    def test_bad_tolerance_exit_two(self, ising_path, capsys, tolerance):
        # the verdicts are exact, so `analyze` has no --tolerance and argparse refuses it
        with pytest.raises(SystemExit) as info:
            main(["analyze", ising_path, f"--tolerance={tolerance}"])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert f"unrecognized arguments: --tolerance={tolerance}" in err
        assert "Traceback" not in err

    def test_bad_tolerance_refused_before_validate(self, ising_path, capsys, monkeypatch):
        def fail(rule):
            raise AssertionError("validate ran")

        monkeypatch.setattr(core, "validate", fail)
        monkeypatch.setattr(cli, "validate", fail)
        with pytest.raises(SystemExit) as info:
            main(["analyze", ising_path, "--tolerance", "nan"])
        assert info.value.code == 2
        assert "unrecognized arguments: --tolerance nan" in capsys.readouterr().err

    def test_fp_dim_past_cap_exit_two(self, tmp_path, capsys):
        # x * x = 1 + n x has d_x just above n: 2**17 - 1 decides, 2**17 is refused
        for n, code in ((2**17 - 1, 0), (2**17, 2)):
            doc = {"rank": 2, "dual": [0, 1],
                   "fusion": [[0, 0, 0, 1], [0, 1, 1, 1], [1, 0, 1, 1], [1, 1, 0, 1], [1, 1, 1, n]]}
            path = tmp_path / f"big{n}.rule"
            path.write_text(json.dumps(doc), encoding="utf-8")
            assert main(["analyze", str(path)]) == code
            captured = capsys.readouterr()
            if code == 0:
                assert "weakly integral: no" in captured.out and not captured.err
            else:
                assert len(captured.err.splitlines()) == 1
                assert captured.err.startswith("error: FP dimension 131072 is 2**17 or more")

    def test_json_keys_stable(self, ising_path, capsys):
        assert main(["analyze", ising_path, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {
            "rank", "labels", "acyclic", "cycle_witness", "nilpotent",
            "nilpotency_class", "central_series", "fp_dims", "global_dim",
            "is_integral", "is_weakly_integral", "theorem_agree",
        }
        assert doc["theorem_agree"] is True


class TestGraphCommand:
    def test_ising_dot(self, ising_path, capsys):
        assert main(["graph", ising_path]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph adjoint {")
        assert 'n1 [label="sigma"];' in out
        assert 'n1 -> n0 [label="1"];' in out
        assert 'n1 -> n2 [label="1"];' in out
        assert 'n2 -> n0 [label="1"];' in out

    def test_trivial_dot(self, tmp_path, capsys):
        path = tmp_path / "trivial.rule"
        path.write_text(dump_rule(named_fixture("trivial")), encoding="utf-8")
        assert main(["graph", str(path)]) == 0
        out = capsys.readouterr().out
        assert out.count("->") == 0
        assert out.count("label=") == 1

    def test_byte_identical_and_to_file(self, ising_path, tmp_path, capsys):
        assert main(["graph", ising_path]) == 0
        first = capsys.readouterr().out
        assert main(["graph", ising_path]) == 0
        second = capsys.readouterr().out
        assert first == second
        out_file = tmp_path / "g.dot"
        assert main(["graph", ising_path, "--dot", str(out_file)]) == 0
        assert out_file.read_text(encoding="utf-8") == first

    def test_corpus_dot_bytes_frozen(self, corpus):
        digest = hashlib.sha256()
        for name in sorted(corpus):
            digest.update(name.encode() + b"\n" + dot_graph(corpus[name]).encode())
        assert digest.hexdigest() == CORPUS_DOT_SHA256

    def test_unwritable_output_exit_two(self, ising_path, tmp_path):
        target = tmp_path / "missing-dir" / "g.dot"
        assert main(["graph", ising_path, "--dot", str(target)]) == 2


class TestGenCommand:
    def test_su2k_roundtrips_through_validate(self, tmp_path, capsys):
        out = tmp_path / "su24.rule"
        assert main(["gen", "su2k", "4", "--out", str(out)]) == 0
        assert main(["validate", str(out)]) == 0
        capsys.readouterr()
        parsed = parse_rule(out.read_text(encoding="utf-8"))
        assert parsed == su2k(4)

    def test_fixture(self, tmp_path):
        out = tmp_path / "f.rule"
        assert main(["gen", "fixture", "so8_2", "--out", str(out)]) == 0
        assert parse_rule(out.read_text(encoding="utf-8")).rank == 11

    def test_double_from_builtin_and_from_file(self, tmp_path):
        out1 = tmp_path / "dd1.rule"
        assert main(["gen", "double", "--group", "s3", "--out", str(out1)]) == 0
        group_file = tmp_path / "s3.group"
        group_file.write_text(dump_group(builtin_group("s3")), encoding="utf-8")
        out2 = tmp_path / "dd2.rule"
        assert main(["gen", "double", "--group", str(group_file), "--out", str(out2)]) == 0
        a = parse_rule(out1.read_text(encoding="utf-8"))
        b = parse_rule(out2.read_text(encoding="utf-8"))
        assert np.array_equal(a.tensor, b.tensor)

    def test_double_past_order_24_from_file(self, tmp_path):
        group_file = tmp_path / "a5.json"
        group_file.write_text(dump_group(alternating(5)), encoding="utf-8")
        out = tmp_path / "a5.rule"
        assert main(["gen", "double", "--group", str(group_file), "--out", str(out)]) == 0
        rule = parse_rule(out.read_text(encoding="utf-8"))
        assert _double_hash(rule) == MORE_DOUBLE_HASHES["a5"]

    def test_double_past_rank_cap_exit_two(self, tmp_path, capsys):
        group_file = tmp_path / "z29.json"
        group_file.write_text(dump_group(cyclic(29)), encoding="utf-8")
        out = tmp_path / "z29.rule"
        assert main(["gen", "double", "--group", str(group_file), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert "841" in err and "Traceback" not in err
        assert not out.exists()

    def test_pointed(self, tmp_path):
        out = tmp_path / "z6.rule"
        assert main(["gen", "pointed", "--group", "z6", "--out", str(out)]) == 0
        assert parse_rule(out.read_text(encoding="utf-8")).is_pointed

    def test_product(self, tmp_path, ising_path):
        out = tmp_path / "p.rule"
        assert main(["gen", "product", ising_path, ising_path, "--out", str(out)]) == 0
        assert parse_rule(out.read_text(encoding="utf-8")).rank == 9

    def test_product_entry_overflow_exit_two(self, tmp_path, capsys):
        # 2**32 * 2**32 wraps to 0 in int64, which would drop a record
        doc = {"rank": 2, "dual": [0, 1],
               "fusion": [[0, 0, 0, 1], [0, 1, 1, 1], [1, 0, 1, 1], [1, 1, 0, 1], [1, 1, 1, 2**32]]}
        path = tmp_path / "a.rule"
        path.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "p.rule"
        assert main(["gen", "product", str(path), str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert "2**63 - 1" in err and "Traceback" not in err
        assert not out.exists()

    def test_unwritable_output_exit_two(self, tmp_path, capsys):
        target = tmp_path / "missing-dir" / "x.rule"
        with pytest.raises(OSError) as refused:
            target.write_text("", encoding="utf-8")
        assert main(["gen", "fixture", "ising", "--out", str(target)]) == 2
        assert capsys.readouterr().err == f"cannot write output: {refused.value}\n"

    def test_unknown_fixture_exit_two(self, capsys):
        assert main(["gen", "fixture", "nosuch"]) == 2
        assert "available" in capsys.readouterr().err

    def test_missing_group_exit_two(self):
        assert main(["gen", "double"]) == 2

    def test_bad_level_exit_two(self, capsys):
        assert main(["gen", "su2k", "abc"]) == 2
        assert main(["gen", "su2k", "0"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("doc", [{"order": True, "table": [0]}, {"order": 1, "table": [False]}])
    def test_group_file_booleans_exit_two(self, tmp_path, capsys, doc):
        group_file = tmp_path / "bool.group"
        group_file.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["gen", "pointed", "--group", str(group_file)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert "Traceback" not in err

    def test_group_file_non_string_name_exit_two(self, tmp_path, capsys):
        group_file = tmp_path / "bad.json"
        group_file.write_text(json.dumps({"name": None, "order": 1, "table": [0]}), encoding="utf-8")
        assert main(["gen", "pointed", "--group", str(group_file)]) == 2
        assert capsys.readouterr().err.endswith("group name must be a string\n")

    def test_double_nan_tolerance_exit_two(self, capsys):
        # the double is exact, so `gen` has no --tolerance and argparse refuses it
        with pytest.raises(SystemExit) as info:
            main(["gen", "double", "--group", "s3", "--tolerance", "nan"])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: --tolerance nan" in err
        assert "Traceback" not in err

    def test_pointed_group_roundtrip(self, tmp_path):
        group_file = tmp_path / "q8.group"
        group_file.write_text(dump_group(builtin_group("q8")), encoding="utf-8")
        g = parse_group(group_file.read_text(encoding="utf-8"))
        assert g.order == 8
        assert np.array_equal(g.table, builtin_group("q8").table)


class TestRoundTrip:
    def test_corpus_round_trips(self, corpus):
        for name, rule in corpus.items():
            if rule.rank > 30:
                continue
            assert parse_rule(dump_rule(rule)) == rule, name

    def test_enumerated_rules_round_trip(self):
        from fusionrules import EnumSpec, enumerate_rules

        for rule in enumerate_rules(EnumSpec(rank=3, max_mult=2)):
            assert parse_rule(dump_rule(rule)) == rule

    def test_labels_optional_in_files(self):
        import json as _json

        doc = {"rank": 2, "dual": [0, 1],
               "fusion": [[0, 0, 0, 1], [0, 1, 1, 1], [1, 0, 1, 1], [1, 1, 0, 1]]}
        rule = parse_rule(_json.dumps(doc))
        assert rule.labels == ("1", "x1")


class TestEnumerateCommand:
    def test_stream_rank_one(self, capsys):
        assert main(["enumerate", "--rank", "1"]) == 0
        out = capsys.readouterr().out
        assert parse_rule(out).rank == 1

    def test_stream_parses_back(self, capsys):
        assert main(["enumerate", "--rank", "2", "--max-mult", "2"]) == 0
        blocks = capsys.readouterr().out.strip().split("\n\n")
        assert len(blocks) == 3
        for block in blocks:
            parse_rule(block)

    def test_survey(self, capsys):
        assert main(["enumerate", "--rank", "2", "--max-mult", "2", "--survey"]) == 0
        out = capsys.readouterr().out
        assert "total: 3" in out
        assert "disagreements: 0" in out

    def test_survey_json(self, capsys):
        assert main(["enumerate", "--rank", "3", "--max-mult", "1", "--survey", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {
            "total", "acyclic_count", "nilpotent_count", "disagreements",
            "weak_integrality_failures", "class_histogram",
        }
        assert doc["total"] == 7
        assert doc["disagreements"] == []

    def test_bare_axioms_reports_both_counts(self, capsys):
        assert main(["enumerate", "--rank", "3", "--max-mult", "1", "--survey",
                     "--bare-axioms"]) == 0
        out = capsys.readouterr().out
        assert "bare axioms): 9" in out
        assert "channel imposed): 7" in out

    def test_bare_axioms_census_runs_one_search_per_dual_map(self, monkeypatch):
        calls = []
        search = _kernels.search_tensors

        def counting_search(*args):
            calls.append(args)
            return search(*args)

        monkeypatch.setattr(_kernels, "search_tensors", counting_search)
        assert main(["enumerate", "--rank", "4", "--max-mult", "1", "--survey",
                     "--bare-axioms"]) == 0
        # one search per conjugacy class of dual maps: no pair, one pair
        assert len(calls) == 2

    def test_bare_axioms_limit_counts_surveyed_rules(self, capsys):
        surveyed = list(enumerate_rules(EnumSpec(rank=3, max_mult=1, limit=6, bare_axioms=True)))
        imposed = sum(validate(rule).valid for rule in surveyed)
        assert imposed == 5
        assert main(["enumerate", "--rank", "3", "--max-mult", "1", "--survey",
                     "--bare-axioms", "--limit", "6"]) == 0
        out = capsys.readouterr().out
        assert "bare axioms): 6" in out
        assert f"channel imposed): {imposed}" in out
        assert main(["enumerate", "--rank", "3", "--max-mult", "1", "--survey",
                     "--bare-axioms", "--limit", "6", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert (doc["total"], doc["total_with_vacuum_uniqueness"]) == (6, imposed)

    def test_survey_nan_tolerance_exit_two(self, capsys):
        # the survey's verdicts are exact, so `enumerate` has no --tolerance
        with pytest.raises(SystemExit) as info:
            main(["enumerate", "--rank", "2", "--max-mult", "1", "--survey",
                  "--tolerance", "nan"])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: --tolerance nan" in err
        assert "Traceback" not in err

    def test_bad_tolerance_refused_before_search(self, capsys, monkeypatch):
        def fail(*args):
            raise AssertionError("search ran")

        monkeypatch.setattr(_kernels, "search_tensors", fail)
        with pytest.raises(SystemExit) as info:
            main(["enumerate", "--rank", "4", "--max-mult", "3", "--survey",
                  "--tolerance", "nan"])
        assert info.value.code == 2
        assert "unrecognized arguments: --tolerance nan" in capsys.readouterr().err

    def test_out_of_bounds_exit_two(self):
        assert main(["enumerate", "--rank", "9", "--survey"]) == 2

    @pytest.mark.parametrize("args", sorted(WRITE_STDOUT_SHA256))
    def test_written_rule_files_frozen(self, capsys, args):
        assert main(args.split()) == 0
        out = capsys.readouterr().out.encode()
        assert hashlib.sha256(out).hexdigest() == WRITE_STDOUT_SHA256[args]

    @pytest.mark.parametrize("args", sorted(SURVEY_STDOUT_SHA256))
    def test_survey_stdout_frozen(self, capsys, args):
        assert main(["enumerate", *args.split()]) == 0
        out = capsys.readouterr().out.encode()
        assert hashlib.sha256(out).hexdigest() == SURVEY_STDOUT_SHA256[args]
