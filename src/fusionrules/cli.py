"""Command-line front end: validate, analyze, graph, gen, enumerate.

Exit codes: 0 success, 1 axiom violations / failed survey checks, 2 parse or
structural errors (including capacity and I/O problems).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from .acyclicity import find_cycle
from .core import FusionRule, fp_dimensions, product, validate
from .errors import FusionError
from .explorer import EnumSpec, enumerate_rules, survey
from .generators import drinfeld_double, fixture_names, named_fixture, pointed, su2k
from .groups import builtin_group, builtin_group_names
from .io import dot_graph, dump_rule, parse_group, parse_rule, rule_to_dict
from .nilpotency import central_series

PARSE_ERROR = 2


def _read_rule(path: str) -> FusionRule:
    return parse_rule(Path(path).read_text(encoding="utf-8"))


def _load_group(spec: str):
    if spec.lower() in builtin_group_names():
        return builtin_group(spec)
    path = Path(spec)
    if path.exists():
        return parse_group(path.read_text(encoding="utf-8"))
    raise FusionError(
        f"{spec!r} is neither a built-in group ({', '.join(builtin_group_names())}) "
        "nor a readable group file"
    )


def _write_output(text: str, out: str | None) -> int:
    """Write ``text`` to the file ``out``, or to stdout when it is None, and
    return the exit code: 2, with one stderr line, when the write fails."""
    try:
        if out is None:
            sys.stdout.write(text)
        else:
            Path(out).write_text(text, encoding="utf-8")
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return PARSE_ERROR
    return 0


def cmd_validate(args) -> int:
    rule = _read_rule(args.path)
    report = validate(rule)
    if args.json:
        doc = {
            "valid": report.valid,
            "violations": [
                {"axiom": v.axiom, "index": list(v.index), "message": v.message}
                for v in report.violations
            ],
        }
        print(json.dumps(doc, indent=2))
    elif report.valid:
        print(f"valid fusion rule: rank {rule.rank}")
    else:
        print(f"invalid fusion rule: {len(report.violations)} violation(s)")
        for v in report.violations:
            print(f"  [{v.axiom}] at {v.index}: {v.message}")
    return 0 if report.valid else 1


def _set_names(rule: FusionRule, members) -> str:
    return "{" + ",".join(rule.labels[i] for i in members) + "}"


def cmd_analyze(args) -> int:
    rule = _read_rule(args.path)
    report = validate(rule)
    if not report.valid:
        print(f"invalid fusion rule ({len(report.violations)} violation(s)); not analyzing",
              file=sys.stderr)
        return 1
    witness = find_cycle(rule)
    series = central_series(rule)
    dims = fp_dimensions(rule)
    theorem_agree = (witness is None) == series.nilpotent

    if args.json:
        doc = {
            "rank": rule.rank,
            "labels": list(rule.labels),
            "acyclic": witness is None,
            "cycle_witness": None if witness is None else {
                "labels": [rule.labels[i] for i in witness.labels],
                "indices": list(witness.labels),
                "multiplicities": list(witness.multiplicities),
            },
            "nilpotent": series.nilpotent,
            "nilpotency_class": series.nilpotency_class,
            "central_series": [list(step.members) for step in series.chain],
            "fp_dims": list(dims.dims),
            "global_dim": dims.global_dim,
            "is_integral": dims.is_integral,
            "is_weakly_integral": dims.is_weakly_integral,
            "theorem_agree": theorem_agree,
        }
        print(json.dumps(doc, indent=2))
        return 0

    print(f"rank: {rule.rank}")
    print(f"labels: {' '.join(rule.labels)}")
    if witness is None:
        print("acyclic: yes")
    else:
        walk = " -> ".join(rule.labels[i] for i in witness.labels)
        mults = ",".join(str(m) for m in witness.multiplicities)
        print(f"acyclic: no (cycle {walk}; multiplicities {mults})")
    if series.nilpotent:
        print(f"nilpotent: yes (class {series.nilpotency_class})")
    else:
        print("nilpotent: no")
    print("central series: " + " > ".join(_set_names(rule, step) for step in series.chain))
    print("fp dims: " + " ".join(f"{d:.8g}" for d in dims.dims))
    print(f"global dim: {dims.global_dim:.8g}")
    print(f"integral: {'yes' if dims.is_integral else 'no'}")
    print(f"weakly integral: {'yes' if dims.is_weakly_integral else 'no'}")
    print(f"theorem: acyclic == nilpotent ({'agree' if theorem_agree else 'DISAGREE'})")
    return 0


def cmd_graph(args) -> int:
    rule = _read_rule(args.path)
    report = validate(rule)
    if not report.valid:
        print("invalid fusion rule; refusing to draw", file=sys.stderr)
        return 1
    return _write_output(dot_graph(rule), args.dot)


def cmd_gen(args) -> int:
    family = args.family
    params = args.params
    if family == "pointed":
        if args.group is None:
            raise FusionError("gen pointed requires --group")
        rule = pointed(_load_group(args.group))
    elif family == "su2k":
        if len(params) != 1:
            raise FusionError("gen su2k requires a level, e.g. `gen su2k 4`")
        rule = su2k(int(params[0]))
    elif family == "fixture":
        if len(params) != 1:
            raise FusionError(
                f"gen fixture requires a name from: {', '.join(fixture_names())}"
            )
        rule = named_fixture(params[0])
    elif family == "double":
        if args.group is None:
            raise FusionError("gen double requires --group")
        rule = drinfeld_double(_load_group(args.group))
    elif family == "product":
        if len(params) != 2:
            raise FusionError("gen product requires two rule files")
        rule = product(_read_rule(params[0]), _read_rule(params[1]))
    else:
        raise FusionError(f"unknown family {family!r}")
    return _write_output(dump_rule(rule), args.out)


def cmd_enumerate(args) -> int:
    spec = EnumSpec(
        rank=args.rank,
        max_mult=args.max_mult,
        limit=args.limit,
        bare_axioms=args.bare_axioms,
    )
    if not args.survey:
        first = True
        for rule in enumerate_rules(spec):
            if not first:
                print()
            sys.stdout.write(dump_rule(rule))
            first = False
        return 0

    result = survey(spec)
    if args.json:
        doc = {
            "total": result.total,
            "acyclic_count": result.acyclic_count,
            "nilpotent_count": result.nilpotent_count,
            "disagreements": [rule_to_dict(r) for r in result.disagreements],
            "weak_integrality_failures": [rule_to_dict(r) for r in result.weak_integrality_failures],
            "class_histogram": {str(k): v for k, v in sorted(result.class_histogram.items())},
        }
        if args.bare_axioms:
            doc["total_with_vacuum_uniqueness"] = result.unique_vacuum_count
        print(json.dumps(doc, indent=2))
    else:
        if args.bare_axioms:
            print(f"total (bare axioms): {result.total}")
            print(f"total (unique vacuum channel imposed): {result.unique_vacuum_count}")
        else:
            print(f"total: {result.total}")
        print(f"acyclic: {result.acyclic_count}")
        print(f"nilpotent: {result.nilpotent_count}")
        print(f"disagreements: {len(result.disagreements)}")
        print(f"weak integrality failures: {len(result.weak_integrality_failures)}")
        histogram = " ".join(f"{k}:{v}" for k, v in sorted(result.class_histogram.items()))
        print(f"class histogram: {histogram}")
    return 0 if result.clean else 1


@functools.cache  # parse_args leaves the parser as it was
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fusionrules",
        description="Exact fusion-rule algebra: validation, acyclicity, nilpotency, generators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a rule file against the fusion axioms")
    p.add_argument("path")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("analyze", help="acyclicity, central series, and dimensions of a rule")
    p.add_argument("path")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("graph", help="emit the adjoint graph as DOT")
    p.add_argument("path")
    p.add_argument("--dot", metavar="OUT", default=None, help="output path (default stdout)")
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("gen", help="generate a rule from a built-in family")
    p.add_argument("family", choices=["pointed", "su2k", "fixture", "double", "product"])
    p.add_argument("params", nargs="*")
    p.add_argument("--group", default=None, help="built-in group name or group file path")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("enumerate", help="exhaustively enumerate small fusion rules")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--max-mult", type=int, default=2)
    p.add_argument("--limit", type=int, default=None)
    p.add_argument("--survey", action="store_true", help="aggregate theorem/integrality checks")
    p.add_argument("--bare-axioms", action="store_true",
                   help="drop the imposed vacuum-channel uniqueness axiom and report both "
                        "censuses; with --limit both count only the surveyed rules")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_enumerate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"cannot read {exc.filename}: not found", file=sys.stderr)
        return PARSE_ERROR
    except (FusionError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return PARSE_ERROR
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return PARSE_ERROR


if __name__ == "__main__":
    sys.exit(main())
