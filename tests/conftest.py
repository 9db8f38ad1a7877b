import pytest

from fusionrules import (
    EnumSpec,
    builtin_group,
    builtin_group_names,
    drinfeld_double,
    enumerate_rules,
    explorer,
    fixture_names,
    named_fixture,
    pointed,
    su2k,
)

# groups whose doubles build in well under a second; the full catalogue
# (orders up to 16) is exercised by the acceptance suite
SMALL_DOUBLE_GROUPS = ("z2", "z3", "z4", "z5", "z6", "z2xz2", "s3", "d4", "d5", "q8", "a4")

R5M2 = EnumSpec(rank=5, max_mult=2)


@pytest.fixture(scope="session")
def fixture_rules():
    return {name: named_fixture(name) for name in fixture_names()}


@pytest.fixture(scope="session")
def pointed_rules():
    return {name: pointed(builtin_group(name)) for name in builtin_group_names()}


@pytest.fixture(scope="session")
def su2k_rules():
    return {k: su2k(k) for k in range(1, 21)}


@pytest.fixture(scope="session")
def double_rules():
    return {name: drinfeld_double(builtin_group(name)) for name in SMALL_DOUBLE_GROUPS}


@pytest.fixture(scope="session")
def corpus(fixture_rules, pointed_rules, su2k_rules, double_rules):
    """Every named rule used across the test suite."""
    rules = {}
    rules.update({f"fixture:{k}": v for k, v in fixture_rules.items()})
    rules.update({f"pointed:{k}": v for k, v in pointed_rules.items()})
    rules.update({f"su2k:{k}": v for k, v in su2k_rules.items()})
    rules.update({f"double:{k}": v for k, v in double_rules.items()})
    return rules


@pytest.fixture(scope="session")
def r5m2_rules():
    """The 776 rules of the r5 m2 census in stream order, searched once for
    the tests that neither time nor patch the search."""
    return tuple(enumerate_rules(R5M2))


@pytest.fixture
def replay_r5m2(monkeypatch, r5m2_rules):
    """``explorer.enumerate_rules`` replays the stored r5 m2 census, so a
    survey of it runs no search; every other spec is searched."""
    search = explorer.enumerate_rules
    monkeypatch.setattr(explorer, "enumerate_rules",
                        lambda spec: iter(r5m2_rules) if spec == R5M2 else search(spec))
