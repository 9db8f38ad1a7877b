"""Acceptance suite: every criterion from the project contract, one test and
one printed PASS/FAIL line each.

Run with ``pytest -s tests/test_acceptance.py -v`` to see the report lines.
"""

import time

import pytest

from fusionrules import (
    EnumSpec,
    adjoint_subrule,
    builtin_group,
    builtin_group_names,
    central_series,
    drinfeld_double,
    enumerate_rules,
    fixture_names,
    fp_dimensions,
    is_acyclic,
    is_nilpotent,
    named_fixture,
    pointed,
    product,
    su2k,
    validate,
)

from oracles import acyclic_by_definition

COROLLARY_GROUPS = ("z2", "z4", "z2xz2", "q8", "d4", "s3", "d5", "a4")


def _report(number: int, description: str, ok: bool, extra: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    tail = f" ({extra})" if extra else ""
    print(f"acceptance {number}: {description}: {status}{tail}")
    assert ok, f"acceptance criterion {number} failed: {description}"


@pytest.fixture(scope="module")
def full_corpus():
    """Criterion 1's corpus: fixtures, pointed rules of every built-in group,
    SU(2)_k for k=1..20, doubles of the whole catalogue, and everything
    enumerable at rank <= 4, max_mult <= 2."""
    t0 = time.time()
    rules = {}
    for name in fixture_names():
        rules[f"fixture:{name}"] = named_fixture(name)
    for name in builtin_group_names():
        rules[f"pointed:{name}"] = pointed(builtin_group(name))
    for k in range(1, 21):
        rules[f"su2k:{k}"] = su2k(k)
    for name in builtin_group_names():
        rules[f"double:{name}"] = drinfeld_double(builtin_group(name))
    for rank in range(1, 5):
        for n, rule in enumerate(enumerate_rules(EnumSpec(rank=rank, max_mult=2))):
            rules[f"enum:r{rank}:{n}"] = rule
    rules["_build_seconds"] = time.time() - t0
    return rules


def test_criterion_1_theorem_equivalence(full_corpus):
    t0 = time.time()
    build = full_corpus["_build_seconds"]
    disagreements = []
    total = 0
    for name, rule in full_corpus.items():
        if name.startswith("_"):
            continue
        total += 1
        if is_acyclic(rule) != central_series(rule).nilpotent:
            disagreements.append(name)
    elapsed = build + time.time() - t0
    _report(
        1,
        "acyclic <=> nilpotent over the full corpus",
        not disagreements and elapsed < 900,
        f"{total} rules, 0 disagreements, {elapsed:.1f}s",
    )


def test_criterion_2_su2_levels():
    verdicts = (is_acyclic(su2k(2)), is_acyclic(su2k(3)), is_acyclic(su2k(4)))
    _report(
        2,
        "SU(2)_2 acyclic, SU(2)_3 and SU(2)_4 not",
        verdicts == (True, False, False),
        f"got {verdicts}",
    )


def test_criterion_3_so8_2_fixture():
    rule = named_fixture("so8_2")
    dims = fp_dimensions(rule)
    rounded = sorted(round(d) for d in dims.dims)
    ok = (
        rule.rank == 11
        and rounded == [1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 2]
        and max(abs(d - r) for d, r in zip(sorted(dims.dims), rounded)) <= 1e-6
        and abs(dims.global_dim - 32.0) <= 1e-6
        and rule.dual == tuple(range(11))
        and is_acyclic(rule)
    )
    _report(3, "SO(8)_2: rank 11, dims 1x4+2x7, global 32, self-dual, acyclic", ok)


def test_criterion_4_doubles_match_group_nilpotency():
    t0 = time.time()
    ok = True
    details = []
    for name in COROLLARY_GROUPS:
        group = builtin_group(name)
        double = drinfeld_double(group)
        acyclic = is_acyclic(double)
        nilpotent, _ = is_nilpotent(group)
        valid = validate(double).valid
        global_ok = abs(fp_dimensions(double).global_dim - group.order ** 2) <= 1e-6
        ok = ok and (acyclic == nilpotent) and valid and global_ok
        details.append(f"{name}:{'a' if acyclic else '-'}{'n' if nilpotent else '-'}")
    elapsed = time.time() - t0
    _report(
        4,
        "double acyclic iff group nilpotent; valid; global dim = order^2",
        ok and elapsed < 120,
        f"{' '.join(details)}, {elapsed:.1f}s",
    )


def test_criterion_5_weak_integrality(full_corpus):
    failures = []
    for name, rule in full_corpus.items():
        if name.startswith("_") or not is_acyclic(rule):
            continue
        if not fp_dimensions(rule).is_weakly_integral:
            failures.append(name)
    _report(5, "every acyclic rule in the corpus is weakly integral", not failures,
            f"failures: {failures!r}" if failures else "0 failures")


def test_criterion_6_rank_drop_lemma(full_corpus):
    bad = []
    for name, rule in full_corpus.items():
        if name.startswith("_") or rule.rank <= 1 or not is_acyclic(rule):
            continue
        if adjoint_subrule(rule).rank >= rule.rank:
            bad.append(name)
    _report(6, "acyclic implies rank(A_ad) < rank(A) for rank > 1", not bad,
            f"violations: {bad!r}" if bad else "0 violations")


def test_criterion_7_product_closure():
    fixtures = {name: named_fixture(name) for name in fixture_names()}
    acyclic = {name: is_acyclic(rule) for name, rule in fixtures.items()}
    ok = True
    for a_name, a in fixtures.items():
        for b_name, b in fixtures.items():
            prod_acyclic = is_acyclic(product(a, b))
            ok = ok and (prod_acyclic == (acyclic[a_name] and acyclic[b_name]))
    _report(7, "products of acyclic fixtures acyclic, others not", ok,
            f"{len(fixtures) ** 2} ordered pairs")


def test_criterion_8_definition_vs_graph(full_corpus):
    mismatches = []
    checked = 0
    for name, rule in full_corpus.items():
        if name.startswith("_") or rule.rank > 6:
            continue
        checked += 1
        if is_acyclic(rule) != acyclic_by_definition(rule):
            mismatches.append(name)
    _report(8, "graph verdict matches literal sequence definition (rank <= 6)",
            not mismatches, f"{checked} rules checked")


def test_criterion_9_rank_two_census():
    rules = list(enumerate_rules(EnumSpec(rank=2, max_mult=2)))
    acyclic_count = sum(is_acyclic(r) for r in rules)
    _report(9, "rank-2 census: exactly 3 rules, exactly 1 acyclic",
            len(rules) == 3 and acyclic_count == 1,
            f"{len(rules)} rules, {acyclic_count} acyclic")
