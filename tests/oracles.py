"""Independent reference computations used to check the library.

Everything here is deliberately written from scratch (plain loops, direct
formulas) so it shares no code path with the implementations under test.
"""

from __future__ import annotations

import itertools
import json

import numpy as np

from fusionrules import FusionRule, NumericalError, StructuralError, TheoremSurvey, Violation, explorer
from fusionrules.groups import _characters, _field
from fusionrules.io import rule_from_dict


def naive_validate(rule: FusionRule) -> bool:
    """Loop-based check of every fusion-rule axiom, including the unique
    vacuum channel condition."""
    N = rule.tensor
    d = rule.dual
    r = rule.rank
    if d[0] != 0 or any(d[d[i]] != i for i in range(r)):
        return False
    for j in range(r):
        for k in range(r):
            if N[0, j, k] != (1 if j == k else 0):
                return False
            if N[j, 0, k] != (1 if j == k else 0):
                return False
    for i in range(r):
        for j in range(r):
            if N[i, j, 0] != (1 if j == d[i] else 0):
                return False
            for k in range(r):
                if N[i, j, k] != N[d[j], d[i], d[k]]:
                    return False
    for i in range(r):
        for j in range(r):
            for k in range(r):
                for l in range(r):
                    lhs = sum(N[i, j, m] * N[m, k, l] for m in range(r))
                    rhs = sum(N[j, k, m] * N[i, m, l] for m in range(r))
                    if lhs != rhs:
                        return False
    return True


def validate_reference(rule: FusionRule) -> list:
    """``validate(rule).violations`` from per-cell loops, axiom by axiom and
    each axiom's cells in lexicographic order, with associativity from the
    dense einsum."""
    N = rule.tensor.tolist()
    d = rule.dual
    r = rule.rank
    out = []
    if d[0] != 0:
        out.append(Violation("involution", (0,), f"dual(0) = {d[0]}, must fix the vacuum"))
    for i in range(r):
        if d[d[i]] != i:
            out.append(Violation("involution", (i,), f"dual(dual({i})) = {d[d[i]]}, not an involution"))
    for j, k in itertools.product(range(r), repeat=2):
        if N[0][j][k] != (j == k):
            out.append(Violation("unit", (0, j, k), f"N[0,{j},{k}] = {N[0][j][k]}, expected {int(j == k)}"))
    for i, k in itertools.product(range(1, r), range(r)):
        if N[i][0][k] != (i == k):
            out.append(Violation("unit", (i, 0, k), f"N[{i},0,{k}] = {N[i][0][k]}, expected {int(i == k)}"))
    for i, j, k in itertools.product(range(r), repeat=3):
        mirrored = N[d[j]][d[i]][d[k]]
        if N[i][j][k] != mirrored:
            out.append(Violation("dual_symmetry", (i, j, k),
                                 f"N[{i},{j},{k}] = {N[i][j][k]} but the dual-mirrored entry is {mirrored}"))
    for i, j, k, l, value in associativity_defect_list(rule.tensor):
        out.append(Violation("associativity", (i, j, k, l),
                             f"sum_m N[{i},{j},m]N[m,{k},{l}] - N[{j},{k},m]N[{i},m,{l}] = {value}"))
    for i in range(r):
        if N[i][d[i]][0] != 1:
            out.append(Violation("vacuum_multiplicity", (i,),
                                 f"N[{i},{d[i]},0] = {N[i][d[i]][0]}, the vacuum must appear exactly once"))
    for i, j in itertools.product(range(r), repeat=2):
        if j != d[i] and N[i][j][0] != 0:
            out.append(Violation("vacuum_uniqueness", (i, j),
                                 f"N[{i},{j},0] = {N[i][j][0]} but {j} is not the dual of {i}"))
    for i, j in itertools.product(range(r), repeat=2):
        x, y = N[i][d[i]][j], N[i][d[i]][d[j]]
        if x != y:
            out.append(Violation("adjoint_symmetry", (i, j),
                                 f"N[{i},{d[i]},{j}] = {x} != {y} = N[{i},{d[i]},{d[j]}]"))
    return out


def acyclic_by_definition(rule: FusionRule) -> bool:
    """Literal reading of acyclicity: no closed label sequence of positive
    multiplicities.  Searches every sequence up to length ``rank`` (a positive
    closed walk always contains a simple cycle, which is at most that long)."""
    N = rule.tensor
    d = rule.dual
    r = rule.rank
    for n in range(1, r + 1):
        for seq in itertools.product(range(r), repeat=n):
            if seq[0] == 0:
                continue
            closed = seq + (seq[0],)
            if all(N[closed[t], d[closed[t]], closed[t + 1]] > 0 for t in range(n)):
                return False
    return True


def associativity_defect_list(tensor: np.ndarray) -> list:
    """``(i, j, k, l, lhs - rhs)`` for every nonzero associativity defect, in
    lexicographic order, from one dense int64 einsum (rank**4 memory)."""
    lhs = np.einsum("ijm,mkl->ijkl", tensor, tensor)
    rhs = np.einsum("jkm,iml->ijkl", tensor, tensor)
    defect = lhs - rhs
    return [
        (int(i), int(j), int(k), int(l), int(defect[i, j, k, l]))
        for i, j, k, l in np.argwhere(defect != 0)
    ]


def shortest_cycle_by_powers(rule: FusionRule) -> tuple[int, int] | None:
    """``(length, start)`` of the shortest cycle of the label digraph, by
    boolean matrix powers: the shortest cycle through ``s`` has the first
    length ``n`` with ``(A**n)[s, s] > 0``.  Ties go to the smallest ``s``;
    ``None`` when no power up to the number of non-vacuum labels closes."""
    N = rule.tensor
    d = rule.dual
    r = rule.rank
    A = np.zeros((r, r), dtype=bool)
    for s in range(1, r):
        for t in range(1, r):
            A[s, t] = N[s, d[s], t] > 0
    power = A.copy()
    for n in range(1, r):
        closed = [s for s in range(1, r) if power[s, s]]
        if closed:
            return n, closed[0]
        power = (power.astype(np.int64) @ A.astype(np.int64)) > 0
    return None


def naive_census(rank: int, max_mult: int, strict: bool = False) -> set:
    """All valid (dual, tensor) pairs by unpruned exhaustion; rank <= 3 only.

    Validity is decided by :func:`naive_validate`, except that with
    ``strict=True`` only the bare axioms are enforced (no unique vacuum channel).
    """
    assert rank <= 3
    involutions = {1: [(0,)], 2: [(0, 1)], 3: [(0, 1, 2), (0, 2, 1)]}[rank]
    out = set()
    for dual in involutions:
        free = [
            (i, j, k)
            for i in range(1, rank)
            for j in range(1, rank)
            for k in range(rank)
            if k > 0 or (strict and j != dual[i])
        ]
        for values in itertools.product(range(max_mult + 1), repeat=len(free)):
            t = np.zeros((rank, rank, rank), dtype=np.int64)
            for a in range(rank):
                t[0, a, a] = 1
                t[a, 0, a] = 1
            for i in range(1, rank):
                t[i, dual[i], 0] = 1
            for (i, j, k), v in zip(free, values):
                t[i, j, k] = v
            rule = FusionRule(labels=tuple(str(x) for x in range(rank)), dual=dual, tensor=t)
            if strict:
                ok = _naive_validate_strict(rule)
            else:
                ok = naive_validate(rule)
            if ok:
                out.add((dual, t.tobytes()))
    return out


def _naive_validate_strict(rule: FusionRule) -> bool:
    N = rule.tensor
    d = rule.dual
    r = rule.rank
    if d[0] != 0 or any(d[d[i]] != i for i in range(r)):
        return False
    for j in range(r):
        for k in range(r):
            if N[0, j, k] != (1 if j == k else 0) or N[j, 0, k] != (1 if j == k else 0):
                return False
    for i in range(r):
        if N[i, d[i], 0] != 1:
            return False
        for j in range(r):
            for k in range(r):
                if N[i, j, k] != N[d[j], d[i], d[k]]:
                    return False
    for i in range(r):
        for j in range(r):
            for k in range(r):
                for l in range(r):
                    lhs = sum(N[i, j, m] * N[m, k, l] for m in range(r))
                    rhs = sum(N[j, k, m] * N[i, m, l] for m in range(r))
                    if lhs != rhs:
                        return False
    return True


def verlinde_su2k(k: int) -> np.ndarray:
    """SU(2) level-k fusion tensor from the sine S-matrix and the Verlinde
    formula (everything self-dual, S real symmetric)."""
    r = k + 1
    grid = np.arange(1, r + 1)
    S = np.sqrt(2.0 / (k + 2)) * np.sin(np.pi * np.outer(grid, grid) / (k + 2))
    N = np.einsum("aj,bj,cj->abc", S, S, S / S[0])
    rounded = np.round(N)
    assert np.abs(N - rounded).max() < 1e-9
    return rounded.astype(np.int64)


# --- SO(8) level 2 via the affine Weyl character formula ------------------------

_D4_RHO = np.array([3.0, 2.0, 1.0, 0.0])
_D4_W1 = np.array([1.0, 0.0, 0.0, 0.0])
_D4_W2 = np.array([1.0, 1.0, 0.0, 0.0])
_D4_W3 = np.array([0.5, 0.5, 0.5, -0.5])
_D4_W4 = np.array([0.5, 0.5, 0.5, 0.5])

# matches the fixture's label order: 1, b1, b2, b1b2, v, s, c, ad, vs, vc, sc
_SO8_LEVEL2_WEIGHTS = [
    0 * _D4_W1,
    2 * _D4_W1, 2 * _D4_W3, 2 * _D4_W4,
    _D4_W1, _D4_W3, _D4_W4, _D4_W2,
    _D4_W1 + _D4_W3, _D4_W1 + _D4_W4, _D4_W3 + _D4_W4,
]


def _d4_weyl_group():
    """Signed permutations of 4 coordinates with an even number of sign flips;
    the determinant is then the permutation sign."""
    for perm in itertools.permutations(range(4)):
        sign = 1
        for a in range(4):
            for b in range(a + 1, 4):
                if perm[a] > perm[b]:
                    sign = -sign
        for flips in itertools.product((1.0, -1.0), repeat=4):
            if np.prod(flips) != 1.0:
                continue
            yield perm, np.array(flips), sign


def so8_level2_tensor() -> np.ndarray:
    """Fusion tensor of SO(8) level 2 from first principles: the unnormalized
    affine S-matrix (sum over the Weyl group at shifted level 8), normalized
    to orthogonal, fed through the Verlinde formula."""
    shifted = [w + _D4_RHO for w in _SO8_LEVEL2_WEIGHTS]
    n = len(shifted)
    S = np.zeros((n, n), dtype=complex)
    for perm, flips, eps in _d4_weyl_group():
        for a in range(n):
            wa = flips * shifted[a][list(perm)]
            for b in range(n):
                S[a, b] += eps * np.exp(-2j * np.pi * np.dot(wa, shifted[b]) / 8.0)
    assert np.abs(S.imag).max() < 1e-9
    S = S.real
    gram = S @ S.T
    alpha = gram[0, 0]
    assert np.allclose(gram, alpha * np.eye(n), atol=1e-6)
    S = S / np.sqrt(alpha)
    if S[0, 0] < 0:
        S = -S
    N = np.einsum("aj,bj,cj->abc", S, S, S / S[0])
    rounded = np.round(N)
    assert np.abs(N - rounded).max() < 1e-9
    assert rounded.min() >= 0
    return rounded.astype(np.int64)


def commuting_pair_orbit_count(group) -> int:
    """Number of orbits of simultaneous conjugation on commuting pairs, via
    Burnside's lemma; equals the number of simple objects of the double."""
    n = group.order
    table = group.table
    total = 0
    for x in range(n):
        cz = [g for g in range(n) if table[x, g] == table[g, x]]
        total += sum(1 for g in cz for h in cz if table[g, h] == table[h, g])
    assert total % n == 0
    return total // n


def double_by_verlinde(group) -> tuple[tuple[int, ...], np.ndarray]:
    """Dual map and fusion tensor of the Drinfeld double from its modular S-matrix,
    mod the prime ``p`` of ``groups._field``.

    Label ``(a, alpha)`` has ``theta(g, h) = alpha(x h x^-1)`` for ``g`` in the
    class of ``a`` with ``x g x^-1 = a`` and ``h`` commuting with ``g``, else 0,
    and ``conj theta(g, h) = theta(g, h^-1)``.  Then
    ``S_XY = (1/|G|) sum_{g, h} conj theta_X(g, h) conj theta_Y(h, g)`` (Coste,
    Gannon and Ruelle), ``S**2`` is the charge conjugation, and
    ``N_XY^Z = sum_W S_XW S_YW conj S_ZW / S_0W`` (Verlinde); every ``N`` is
    below ``|G|**2 < p``, so its residue is the multiplicity.  Labels follow
    ``drinfeld_double``: by class, then by the centralizer's character rows.
    The character tables mod p (``groups._characters``, checked on their own
    elsewhere) are the only code it shares with ``drinfeld_double``.
    """
    n, t, inv = group.order, group.table, group.inverses
    e, p = _field(group)
    theta = []
    for cls in group.conjugacy_classes:
        a = cls[0]
        cz = group.centralizer_elements(a)
        sub_classes, _, rows, _ = _characters(group.subgroup(cz), e, p)
        class_in_cz = {cz[m]: i for i, members in enumerate(sub_classes) for m in members}
        conjugator = {}
        for x in range(n):
            conjugator.setdefault(int(t[t[inv[x], a], x]), x)  # g = x^-1 a x
        for row in rows:
            th = np.zeros((n, n), dtype=np.int64)
            for g, x in conjugator.items():
                for h in range(n):
                    if t[g, h] == t[h, g]:
                        th[g, h] = row[class_in_cz[int(t[t[x, h], inv[x]])]]
            theta.append(th)
    theta = np.array(theta)
    r = len(theta)
    bar = theta[:, :, list(inv)]
    inv_n = pow(n, -1, p)
    s = bar.reshape(r, -1) @ bar.transpose(0, 2, 1).reshape(r, -1).T % p * inv_n % p
    s_bar = theta.reshape(r, -1) @ theta.transpose(0, 2, 1).reshape(r, -1).T % p * inv_n % p
    charge = s @ s % p
    dual = np.argmax(charge, axis=1)
    assert np.array_equal(charge, np.eye(r, dtype=np.int64)[dual]), "S**2 is not a permutation"
    weights = s * np.array([pow(int(v), -1, p) for v in s[0]]) % p
    tensor = (weights[:, None, :] * s[None, :, :] % p) @ s_bar.T % p
    return tuple(dual.tolist()), tensor


def closure_by_fixpoint(rule: FusionRule, seed) -> set:
    """Smallest label set holding ``seed`` and the vacuum that is closed under
    duals and under every outcome ``k`` with ``N[i, j, k] > 0``: sweep all
    pairs of members until a sweep adds nothing."""
    N = rule.tensor.tolist()
    members = set(seed) | {0}
    changed = True
    while changed:
        changed = False
        for i in sorted(members):
            grown = {rule.dual[i]}
            for j in sorted(members):
                grown.update(k for k in range(rule.rank) if N[i][j][k] > 0)
            if not grown <= members:
                members |= grown
                changed = True
    return members


def search_tensors_reference(plan, max_val, rank):
    """The search of ``_kernels.search_tensors`` with each associativity
    quadruple re-derived from its ``(i, j, k, l)`` on every check: a plain
    ``m`` loop over ``N[i,j,m] N[m,k,l] - N[j,k,m] N[i,m,l]`` on the flat
    tensor, with no compiled index lists and no dropped terms."""
    T = len(plan.orbit_a)
    r = rank
    tensor = list(plan.base)
    oa = plan.orbit_a
    ob = plan.orbit_b
    buckets = [[] for _ in range(T)]
    for t, i, j, k, l in plan.quads:
        buckets[t].append((i, j, k, l))
    vals = [-1] * T
    solutions = []
    t = 0
    while t >= 0:
        v = vals[t] + 1
        if v > max_val:
            vals[t] = -1
            for c in (oa[t], *ob[t]):
                tensor[c] = -1
            t -= 1
            continue
        vals[t] = v
        for c in (oa[t], *ob[t]):
            tensor[c] = v
        ok = True
        for i, j, k, l in buckets[t]:
            s = 0
            for m in range(r):
                s += tensor[(i * r + j) * r + m] * tensor[(m * r + k) * r + l]
                s -= tensor[(j * r + k) * r + m] * tensor[(i * r + m) * r + l]
            if s != 0:
                ok = False
                break
        if ok:
            if t == T - 1:
                solutions.append(tuple(tensor))
            else:
                t += 1
    return solutions


def fp_verdicts_reference(rule: FusionRule):
    """``(dims, global_dim, is_integral, is_weakly_integral)`` decided in
    floating point: the Perron vector of ``sum_i N_i`` from a dense
    eigensolver, each dim its Rayleigh quotient, and a dim or the global
    dimension counted integral when it lies within 1e-6 of a positive integer.
    The float test is wrong where ``D**2`` is that close to an integer
    without being one (``x * x = 1 + n x`` for n = 1001), so it is a
    reference only on rules away from that edge."""
    values, vectors = np.linalg.eig(rule.tensor.sum(axis=0).astype(np.float64))
    v = np.abs(vectors[:, np.argmax(values.real)].real)
    d = v / v[0]
    dims = np.einsum("ijk,k->ij", rule.tensor, d) @ d / (d @ d)
    global_dim = float(dims @ dims)

    def near_positive_integer(x):
        return abs(x - round(x)) <= 1e-6 and round(x) >= 1

    return (tuple(dims.tolist()), global_dim, all(map(near_positive_integer, dims)),
            near_positive_integer(global_dim))


def survey_reference(spec):
    """``explorer.survey`` with every analysis run on every labelled rule, no
    isomorphism classes: the loop the per-class survey must reproduce."""
    total = unique_vacuum_count = acyclic_count = nilpotent_count = 0
    disagreements = []
    failures = []
    histogram = {}
    for rule in explorer.enumerate_rules(spec):
        total += 1
        unique_vacuum_count += bool(np.count_nonzero(rule.tensor[:, :, 0]) == rule.rank)
        acyclic = explorer.is_acyclic(rule)
        series = explorer.central_series(rule)
        acyclic_count += acyclic
        nilpotent_count += series.nilpotent
        if acyclic != series.nilpotent:
            disagreements.append(rule)
        if series.nilpotent:
            c = series.nilpotency_class
            histogram[c] = histogram.get(c, 0) + 1
        try:
            dims = explorer.fp_dimensions(rule)
        except NumericalError as exc:
            exc.rule = rule
            raise
        if acyclic and not dims.is_weakly_integral:
            failures.append(rule)
    return TheoremSurvey(
        total=total,
        unique_vacuum_count=unique_vacuum_count,
        acyclic_count=acyclic_count,
        nilpotent_count=nilpotent_count,
        disagreements=tuple(disagreements),
        weak_integrality_failures=tuple(failures),
        class_histogram=histogram,
    )


def dump_rule_reference(rule: FusionRule) -> str:
    """A rule file as the standard library's indenting JSON encoder writes it:
    the nonzero entries as ``[i, j, k, multiplicity]`` in row-major order."""
    t = rule.tensor.tolist()
    records = [[i, j, k, t[i][j][k]] for i, j, k in np.argwhere(rule.tensor).tolist()]
    doc = {"rank": rule.rank, "labels": list(rule.labels), "dual": list(rule.dual),
           "fusion": records}
    return json.dumps(doc, indent=2) + "\n"


def dump_group_reference(group) -> str:
    """A group file as the standard library's indenting JSON encoder writes it."""
    table = [int(x) for row in group.table for x in row]
    return json.dumps({"order": group.order, "table": table, "name": group.name}, indent=2) + "\n"


def parse_rule_reference(text) -> FusionRule:
    """A rule file read as a whole by ``json.loads``, then checked by
    ``rule_from_dict``: the path ``parse_rule`` takes for every text its
    record reader declines."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise StructuralError(f"rule file is not valid JSON: {exc}") from exc
    return rule_from_dict(data)
