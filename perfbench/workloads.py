"""Seeded inputs, timed passes and observed invariants for the three workloads.

Each workload object is built by set-up from ``(size, seed)`` and then runs
passes over that fixed input.  A pass returns its wall and CPU seconds, the
time to its first finished rule, and what it observed per operation; the
observations are compared with ``reference.json`` after the clock stops.

The seed only relabels inputs (isomorphic groups and rules, a reordered list
of dual maps), so every seed must reproduce the same invariants.  Calls go
through module attributes at call time (``fr.drinfeld_double``,
``cli.main``), so the wrappers that ``spans.py`` installs see them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import fusionrules as fr
from fusionrules import cli, explorer

# survey: the rank-4 census of ROADMAP item 4; about 99% of it is the search.
# doubles: the Drinfeld double path of ROADMAP item 2; z13..z16 share the code
#   path but z16 alone costs about 20 s, so they are left out.
# check: rule files on both sides of core's rank-40 associativity branch, so a
#   change to either branch (ROADMAP 3(b)) shows on this workload.
SIZES = {
    "survey": {
        "full": {"rank": 4, "max_mult": 3},
        "smoke": {"rank": 3, "max_mult": 2},
    },
    "doubles": {
        # largest first, so first_rule_s times a whole double rather than z7's 0.1 s
        "full": ["z12", "z11", "z10", "z9", "z8", "z7", "z2xz2", "s3", "d4", "d5", "q8", "a4"],
        "smoke": ["s3", "z4"],
    },
    "check": {
        "full": {
            "rules": [
                ("double_z10", ("double", "z10")),       # rank 100
                ("su2k_60", ("su2k", 60)),               # rank 61
                ("so8_2_x_toric", ("product", "so8_2", "toric")),  # rank 44
                ("su2k_39", ("su2k", 39)),               # rank 40
                ("su2k_38", ("su2k", 38)),
                ("su2k_37", ("su2k", 37)),
                ("su2k_36", ("su2k", 36)),
                ("su2k_35", ("su2k", 35)),
                ("double_z6", ("double", "z6")),         # rank 36
                ("so8_2_x_ising", ("product", "so8_2", "ising")),  # rank 33
            ],
            "gen_product": ("so8_2", "toric"),
        },
        "smoke": {
            "rules": [("ising_x_toric", ("product", "ising", "toric"))],
            "gen_product": ("ising", "toric"),
        },
    },
}

FLOAT_TOLERANCE = 1e-6


@dataclass
class PassResult:
    wall_s: float
    cpu_s: float
    first_rule_s: float
    observed: dict = field(default_factory=dict)


def matches(observed, reference) -> bool:
    """Equality of JSON-like values, floats within ``FLOAT_TOLERANCE`` (relative
    above 1): relabelled inputs change the order of floating-point sums."""
    if isinstance(reference, float) or isinstance(observed, float):
        if isinstance(observed, bool) or isinstance(reference, bool):
            return observed is reference
        if not isinstance(observed, (int, float)) or not isinstance(reference, (int, float)):
            return False
        return abs(observed - reference) <= FLOAT_TOLERANCE * max(1.0, abs(reference))
    if isinstance(reference, dict):
        return (
            isinstance(observed, dict)
            and observed.keys() == reference.keys()
            and all(matches(observed[k], reference[k]) for k in reference)
        )
    if isinstance(reference, list):
        return (
            isinstance(observed, list)
            and len(observed) == len(reference)
            and all(matches(o, r) for o, r in zip(observed, reference))
        )
    return type(observed) is type(reference) and observed == reference


def _jsonable(value):
    return json.loads(json.dumps(value))


class _Clock:
    """Wall and process-CPU time of one pass, plus the first-rule timestamp."""

    def __init__(self):
        self.first = None
        self.t0 = time.perf_counter()
        self.c0 = time.process_time()

    def mark_first(self):
        if self.first is None:
            self.first = time.perf_counter()

    def stop(self, observed: dict) -> PassResult:
        wall = time.perf_counter() - self.t0
        cpu = time.process_time() - self.c0
        first = wall if self.first is None else self.first - self.t0
        return PassResult(wall_s=wall, cpu_s=cpu, first_rule_s=first, observed=observed)


def _op(observed: dict, name: str, fn):
    """Run one operation; an exception is recorded as its observation."""
    try:
        observed[name] = fn()
    except Exception as exc:  # noqa: BLE001 - a failed operation must not stop the pass
        observed[name] = {"error": f"{type(exc).__name__}: {exc}"}


def _sha(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else str(part).encode())
    return h.hexdigest()


# --- survey ------------------------------------------------------------------


def _involutions(rank: int) -> list[tuple[int, ...]]:
    """Every involution of 0..rank-1 that fixes 0."""
    out = []

    def extend(dual: list[int], free: list[int]):
        if not free:
            out.append(tuple(dual))
            return
        first, rest = free[0], free[1:]
        dual[first] = first
        extend(dual, rest)
        for n, partner in enumerate(rest):
            dual[first], dual[partner] = partner, first
            extend(dual, rest[:n] + rest[n + 1:])
            dual[partner] = partner

    extend(list(range(rank)), list(range(1, rank)))
    return out


class Survey:
    """``survey(EnumSpec(rank, max_mult))`` with the dual maps in seeded order."""

    def __init__(self, size: str, seed: int, workdir: Path):
        params = SIZES["survey"][size]
        duals = _involutions(params["rank"])
        random.Random(seed).shuffle(duals)
        self.spec = fr.EnumSpec(rank=params["rank"], max_mult=params["max_mult"],
                                dual_maps=tuple(duals))
        self.inputs_sha256 = _sha(json.dumps(duals))

    def warm_up(self):
        Survey("smoke", 0, None).run_pass()

    def run_pass(self) -> PassResult:
        stream = hashlib.sha256()
        clock = _Clock()
        real = explorer.enumerate_rules

        def pass_through(spec):
            # stores one timestamp and hashes the stream; it is not a trace
            for rule in real(spec):
                clock.mark_first()
                stream.update(json.dumps(rule.dual).encode())
                stream.update(rule.tensor.tobytes())
                yield rule

        explorer.enumerate_rules = pass_through
        observed = {}
        try:
            _op(observed, "survey", lambda: fr.survey(self.spec))
        finally:
            explorer.enumerate_rules = real
        result = clock.stop(observed)
        res = observed["survey"]
        if isinstance(res, fr.TheoremSurvey):
            observed["survey"] = {
                "total": res.total,
                "acyclic": res.acyclic_count,
                "nilpotent": res.nilpotent_count,
                "class_histogram": {str(k): v for k, v in sorted(res.class_histogram.items())},
                "disagreements": len(res.disagreements),
                "weak_integrality_failures": len(res.weak_integrality_failures),
                "stream_sha256": stream.hexdigest(),
            }
        return result


# --- doubles -----------------------------------------------------------------


def relabel_group(group, perm: list[int]):
    """The same group with element ``a`` renamed ``perm[a]`` (``perm[0] == 0``)."""
    p = np.array(perm)
    table = np.empty_like(group.table)
    table[np.ix_(p, p)] = p[group.table]
    return fr.FiniteGroup(table=table, name=group.name)


def _fixing_zero(rng: random.Random, n: int) -> list[int]:
    rest = list(range(1, n))
    rng.shuffle(rest)
    return [0] + rest


class Doubles:
    """``drinfeld_double`` of relabelled groups, with the theorem cross-check:
    ``is_acyclic(D(G)) == central_series(D(G)).nilpotent == is_nilpotent(G)``."""

    def __init__(self, size: str, seed: int, workdir: Path):
        rng = random.Random(seed)
        self.groups = []
        for name in SIZES["doubles"][size]:
            group = fr.builtin_group(name)
            self.groups.append((name, relabel_group(group, _fixing_zero(rng, group.order))))
        self.inputs_sha256 = _sha(*(g.table.tobytes() for _, g in self.groups))

    def warm_up(self):
        Doubles("smoke", 0, None).run_pass()

    def run_pass(self) -> PassResult:
        clock = _Clock()
        built = {}
        for name, group in self.groups:
            def op(group=group):
                double = fr.drinfeld_double(group)
                clock.mark_first()
                acyclic = fr.is_acyclic(double)
                series = fr.central_series(double)
                group_nilpotent = fr.is_nilpotent(group)[0]
                dims = fr.fp_dimensions(double)
                return double, acyclic, series, group_nilpotent, dims
            _op(built, name, op)
        result = clock.stop({})
        for name, value in built.items():
            if isinstance(value, dict):  # the operation raised
                result.observed[name] = value
                continue
            double, acyclic, series, group_nilpotent, dims = value
            result.observed[name] = {
                "rank": double.rank,
                "acyclic": acyclic,
                "nilpotent": series.nilpotent,
                "group_nilpotent": bool(group_nilpotent),
                "agree": acyclic == series.nilpotent == bool(group_nilpotent),
                "integral": dims.is_integral,
                "fp_dims": sorted(dims.dims),
                "global_dim": dims.global_dim,
            }
        return result


# --- check -------------------------------------------------------------------


def relabel_rule(rule, perm: list[int]):
    """The same rule with label ``i`` renamed ``perm[i]`` (``perm[0] == 0``)."""
    p = np.array(perm)
    tensor = np.empty_like(rule.tensor)
    tensor[np.ix_(p, p, p)] = rule.tensor
    labels = [None] * rule.rank
    dual = [0] * rule.rank
    for i in range(rule.rank):
        labels[perm[i]] = rule.labels[i]
        dual[perm[i]] = perm[rule.dual[i]]
    return fr.FusionRule(labels=tuple(labels), dual=tuple(dual), tensor=tensor)


def _build_rule(recipe):
    kind, *params = recipe
    if kind == "double":
        return fr.drinfeld_double(fr.builtin_group(params[0]))
    if kind == "su2k":
        return fr.su2k(params[0])
    if kind == "product":
        return fr.product(fr.named_fixture(params[0]), fr.named_fixture(params[1]))
    raise ValueError(f"unknown rule recipe {recipe!r}")


def _cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def _analyze_invariants(code: int, text: str) -> dict:
    doc = json.loads(text)
    witness = doc["cycle_witness"]
    return {
        "exit": code,
        "rank": doc["rank"],
        "acyclic": doc["acyclic"],
        "cycle_len": None if witness is None else len(witness["multiplicities"]),
        "nilpotent": doc["nilpotent"],
        "nilpotency_class": doc["nilpotency_class"],
        "series_ranks": [len(step) for step in doc["central_series"]],
        "fp_dims": sorted(doc["fp_dims"]),
        "global_dim": doc["global_dim"],
        "is_integral": doc["is_integral"],
        "is_weakly_integral": doc["is_weakly_integral"],
        "theorem_agree": doc["theorem_agree"],
    }


class Check:
    """In-process ``fusionrules validate`` and ``analyze --json`` on relabelled
    rule files written at set-up, plus one ``gen product ... --out``."""

    def __init__(self, size: str, seed: int, workdir: Path):
        rng = random.Random(seed)
        params = SIZES["check"][size]
        workdir.mkdir(parents=True, exist_ok=True)
        self.files = []
        texts = []
        for name, recipe in params["rules"]:
            rule = _build_rule(recipe)
            text = fr.dump_rule(relabel_rule(rule, _fixing_zero(rng, rule.rank)))
            path = workdir / f"{name}.rule"
            path.write_text(text, encoding="utf-8")
            self.files.append((name, str(path)))
            texts.append(text)
        self.product_inputs = []
        for fixture in params["gen_product"]:
            rule = fr.named_fixture(fixture)
            text = fr.dump_rule(relabel_rule(rule, _fixing_zero(rng, rule.rank)))
            path = workdir / f"fixture_{fixture}.rule"
            path.write_text(text, encoding="utf-8")
            self.product_inputs.append(str(path))
            texts.append(text)
        self.product_out = workdir / "product_out.rule"
        self.inputs_sha256 = _sha(*texts)
        self.workdir = workdir

    def warm_up(self):
        Check("smoke", 0, self.workdir / "warm_up").run_pass()

    def run_pass(self) -> PassResult:
        clock = _Clock()
        raw = {}
        for name, path in self.files:
            _op(raw, f"validate:{name}", lambda path=path: _cli(["validate", path]))
            clock.mark_first()
            _op(raw, f"analyze:{name}", lambda path=path: _cli(["analyze", path, "--json"]))
        argv = ["gen", "product", *self.product_inputs, "--out", str(self.product_out)]
        _op(raw, "gen_product", lambda: _cli(argv))
        result = clock.stop({})
        observed = result.observed
        for op, value in raw.items():
            if isinstance(value, dict):  # the operation raised
                observed[op] = value
            elif op.startswith("validate:"):
                observed[op] = {"exit": value[0], "stdout": value[1].strip()}
            elif op.startswith("analyze:"):
                _op(observed, op, lambda value=value: _analyze_invariants(*value))
            else:
                _op(observed, op, lambda value=value: self._product_invariants(value[0]))
        return result

    def _product_invariants(self, code: int) -> dict:
        doc = json.loads(self.product_out.read_text(encoding="utf-8"))
        return {"exit": code, "rank": doc["rank"], "records": len(doc["fusion"])}


WORKLOADS = {"survey": Survey, "doubles": Doubles, "check": Check}


def observations(result: PassResult) -> dict:
    return _jsonable(result.observed)


def failures(observed: dict, reference: dict) -> list[str]:
    """Names of the reference operations whose observation differs."""
    return [op for op in reference if op not in observed or not matches(observed[op], reference[op])]
