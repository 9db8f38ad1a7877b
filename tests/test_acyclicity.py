import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fusionrules import (
    EnumSpec,
    FusionRule,
    adjoint_graph,
    central_series,
    enumerate_rules,
    find_cycle,
    is_acyclic,
    named_fixture,
    pointed,
    product,
    su2k,
)
from fusionrules.groups import builtin_group

from oracles import acyclic_by_definition, shortest_cycle_by_powers


class TestAdjointGraph:
    def test_ising(self):
        graph = adjoint_graph(named_fixture("ising"))
        assert graph.vertices == ((0,), (1,), (2,))
        assert graph.edges == ((1, 0, 1), (1, 2, 1), (2, 0, 1))

    def test_pointed_cyclic_groups(self):
        for n in (2, 3, 5, 8):
            graph = adjoint_graph(pointed(builtin_group(f"z{n}")))
            for v in range(1, len(graph.vertices)):
                outgoing = [e for e in graph.edges if e[0] == v]
                assert outgoing == [(v, 0, 1)]

    def test_vacuum_has_no_outgoing_edges(self, corpus):
        for name, rule in corpus.items():
            graph = adjoint_graph(rule)
            assert all(src != 0 for src, _, _ in graph.edges), name
            assert all(w > 0 for _, _, w in graph.edges), name

    def test_non_self_dual_pairs_merge(self):
        rule = pointed(builtin_group("z5"))
        graph = adjoint_graph(rule)
        # 1/4 and 2/3 are mutually dual, so 5 labels give 3 vertices
        assert graph.vertices == ((0,), (1, 4), (2, 3))

    def test_so8_2_matches_published_figure(self):
        graph = adjoint_graph(named_fixture("so8_2"))
        assert len(graph.vertices) == 11
        assert all(len(pair) == 1 for pair in graph.vertices)

    def test_pair_graph_cycles_match_verdict(self, corpus):
        # independent cycle check (iterative DFS on the pair graph)
        for name, rule in corpus.items():
            graph = adjoint_graph(rule)
            adjacency = {v: [] for v in range(len(graph.vertices))}
            for src, dst, _ in graph.edges:
                adjacency[src].append(dst)
            state = {v: 0 for v in adjacency}
            cyclic = False
            for root in adjacency:
                if state[root] or root == 0:
                    continue
                stack = [(root, iter(adjacency[root]))]
                state[root] = 1
                while stack:
                    node, it = stack[-1]
                    advanced = False
                    for nxt in it:
                        if nxt == 0:
                            continue
                        if state[nxt] == 1:
                            cyclic = True
                        elif state[nxt] == 0:
                            state[nxt] = 1
                            stack.append((nxt, iter(adjacency[nxt])))
                            advanced = True
                            break
                    if not advanced:
                        state[node] = 2
                        stack.pop()
            assert cyclic == (not is_acyclic(rule)), name


class TestIsAcyclic:
    def test_su2_triality(self):
        assert is_acyclic(su2k(2))
        assert not is_acyclic(su2k(3))
        assert not is_acyclic(su2k(4))

    def test_su23_witness_is_spin_one_self_loop(self):
        witness = find_cycle(su2k(3))
        assert witness.labels == (2, 2)
        assert witness.multiplicities == (1,)

    def test_fibonacci_witness(self):
        witness = find_cycle(named_fixture("fibonacci"))
        assert witness.labels == (1, 1)
        assert witness.holds_in(named_fixture("fibonacci"))

    def test_witnesses_are_sound_and_avoid_vacuum(self, corpus):
        for name, rule in corpus.items():
            witness = find_cycle(rule)
            if witness is not None:
                assert witness.holds_in(rule), name
                assert 0 not in witness.labels, name

    def test_shortest_witness_tiebreak(self):
        # Fibonacci x Fibonacci has self-loops at labels 1, 2, 3; pick label 1
        fib = named_fixture("fibonacci")
        witness = find_cycle(product(fib, fib))
        assert witness.labels == (1, 1)

    def test_two_step_cycle_witness(self):
        # all self-dual; 1 and 2 feed each other but neither loops on itself
        import numpy as np
        from fusionrules import FusionRule

        entries = [
            (0, 0, 0), (0, 1, 1), (0, 2, 2), (0, 3, 3),
            (1, 0, 1), (1, 1, 0), (1, 1, 2), (1, 1, 3), (1, 2, 1), (1, 2, 2), (1, 3, 1),
            (2, 0, 2), (2, 1, 1), (2, 1, 2), (2, 2, 0), (2, 2, 1), (2, 2, 3), (2, 3, 2),
            (3, 0, 3), (3, 1, 1), (3, 2, 2), (3, 3, 0),
        ]
        t = np.zeros((4, 4, 4), dtype=np.int64)
        for i, j, k in entries:
            t[i, j, k] = 1
        rule = FusionRule(labels=("1", "a", "b", "c"), dual=(0, 1, 2, 3), tensor=t)
        witness = find_cycle(rule)
        assert witness.labels == (1, 2, 1)
        assert witness.multiplicities == (1, 1)
        assert witness.holds_in(rule)

    def test_matches_literal_definition(self, corpus):
        for name, rule in corpus.items():
            if rule.rank > 6:
                continue
            assert is_acyclic(rule) == acyclic_by_definition(rule), name


def assert_witness_matches_powers(rule, name=None):
    witness = find_cycle(rule)
    expected = shortest_cycle_by_powers(rule)
    if expected is None:
        assert witness is None, name
        return
    assert (len(witness), witness.labels[0]) == expected, name
    assert witness.holds_in(rule), name


@st.composite
def digraph_rules(draw):
    # find_cycle reads only the dual map and the rows N[i, dual(i), :]
    r = draw(st.integers(1, 6))
    dual = draw(st.permutations(range(r)))
    flat = draw(st.lists(st.integers(0, 2), min_size=r**3, max_size=r**3))
    tensor = np.array(flat, dtype=np.int64).reshape(r, r, r)
    return FusionRule(labels=tuple(str(x) for x in range(r)), dual=dual, tensor=tensor)


class TestWitnessAgainstMatrixPowers:
    """Length and start of the shortest witness, against boolean matrix powers."""

    def test_every_rank4_rule(self):
        for n, rule in enumerate(enumerate_rules(EnumSpec(4, 2))):
            assert_witness_matches_powers(rule, n)

    def test_corpus(self, corpus):
        for name, rule in corpus.items():
            assert_witness_matches_powers(rule, name)

    @settings(max_examples=300, deadline=None)
    @given(digraph_rules())
    def test_random_tensors(self, rule):
        assert_witness_matches_powers(rule)


class TestCheckTheorem:
    def test_ising(self):
        rule = named_fixture("ising")
        assert is_acyclic(rule) and central_series(rule).nilpotent

    def test_fibonacci(self):
        rule = named_fixture("fibonacci")
        assert not is_acyclic(rule) and not central_series(rule).nilpotent

    def test_corpus_agreement(self, corpus):
        for name, rule in corpus.items():
            assert is_acyclic(rule) == central_series(rule).nilpotent, name

    def test_acyclic_rank_drop(self, corpus):
        # acyclic implies a strictly smaller adjoint sub-rule for rank > 1
        from fusionrules import adjoint_subrule

        for name, rule in corpus.items():
            if is_acyclic(rule) and rule.rank > 1:
                assert adjoint_subrule(rule).rank < rule.rank, name
