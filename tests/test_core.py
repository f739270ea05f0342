import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kgexpand.core import (
    KnowledgeGraph,
    largest_component,
    merge_local,
    normalize_label,
    normalize_relation,
)
from kgexpand.errors import EmptyGraph, InvalidLabel

from . import oracles
from .strategies import knowledge_graphs, labels, relation_kinds


# ---------------------------------------------------------------------------
# label normalization


def test_normalize_collapses_whitespace():
    label = normalize_label("  Self-Healing   Materials ")
    assert label.display == "Self-Healing Materials"
    assert label.key == "self-healing materials"


def test_normalize_case_folds_key():
    assert normalize_label("AI").key == "ai"
    assert normalize_label("AI").display == "AI"


def test_case_variants_share_identity():
    assert (normalize_label("Pollution Mitigation").key
            == normalize_label("pollution mitigation").key)


def test_empty_label_rejected():
    with pytest.raises(InvalidLabel):
        normalize_label("   ")


@given(labels)
def test_normalize_is_idempotent(raw):
    once = normalize_label(raw)
    twice = normalize_label(once.display)
    assert once == twice


# ---------------------------------------------------------------------------
# merging


def _graph(*edges):
    g = KnowledgeGraph()
    for src, kind, tgt in edges:
        g.add_edge(src, kind, tgt)
    return g


def test_merge_empty_local_is_noop():
    g = _graph(("A", "HAS", "B"))
    before = set(g.triples())
    delta = merge_local(g, KnowledgeGraph())
    assert (delta.added_nodes, delta.added_edges) == (0, 0)
    assert set(g.triples()) == before


def test_merge_same_local_twice_adds_nothing():
    local = _graph(("A", "HAS", "B"), ("B", "IS-A", "C"), ("C", "INFLUENCES", "A"))
    g = KnowledgeGraph()
    first = merge_local(g, local)
    assert (first.added_nodes, first.added_edges) == (3, 3)
    second = merge_local(g, local)
    assert (second.added_nodes, second.added_edges) == (0, 0)


def test_merge_counts_match_set_union():
    g = _graph(("A", "HAS", "B"), ("B", "IS-A", "C"))
    local = _graph(("B", "IS-A", "C"), ("C", "HAS", "D"), ("a", "IS-A", "B"))
    expected = set(g.triples()) | set(local.triples())
    delta = merge_local(g, local)
    assert set(g.triples()) == expected
    assert delta.added_edges == 2  # duplicate B-IS-A-C ignored
    assert delta.added_nodes == 1  # "a" folds into existing "A"


def test_relation_kinds_are_part_of_identity():
    g = _graph(("A", "IS-A", "B"), ("A", "RELATES-TO", "B"))
    assert g.edge_count == 2


@given(knowledge_graphs(), knowledge_graphs())
def test_merge_idempotent(a, b):
    g1 = a.copy()
    merge_local(g1, b)
    g2 = a.copy()
    merge_local(g2, b)
    merge_local(g2, b)
    assert g1.triples() == g2.triples()


@given(st.lists(knowledge_graphs(max_edges=5), max_size=4), st.randoms())
def test_merge_order_does_not_matter(locals_, rng):
    g1 = KnowledgeGraph()
    for local in locals_:
        merge_local(g1, local)
    shuffled = list(locals_)
    rng.shuffle(shuffled)
    g2 = KnowledgeGraph()
    for local in shuffled:
        merge_local(g2, local)
    assert g1.triples() == g2.triples()
    assert g1.display_map().keys() == g2.display_map().keys()


@given(knowledge_graphs(), st.lists(knowledge_graphs(max_edges=6), max_size=4))
def test_merge_equals_the_per_triple_merge(start, locals_):
    fast, slow = start.copy(), start.copy()
    for local in locals_:
        assert merge_local(fast, local) == oracles.merge_local(slow, local)
    assert list(fast.display_map().items()) == list(slow.display_map().items())
    assert fast.triples() == slow.triples()


# ---------------------------------------------------------------------------
# the growth log


def test_added_since_reads_the_tail_and_a_duplicate_keeps_its_place():
    g = _graph(("A", "HAS", "B"))
    g.add_node("C")
    assert g.added_since(0, 0) == (["a", "b", "c"], [("a", "HAS", "b")])
    local = _graph(("b", "IS-A", "D"), ("a", "HAS", "b"), ("C", "HAS", "A"))
    merge_local(g, local)
    g.add_node("a")
    assert not g.add_keyed_edge("b", "IS-A", "d")
    assert g.added_since(2, 1) == (["c", "d"], [("b", "IS-A", "d"), ("c", "HAS", "a")])
    assert g.added_since(4, 3) == ([], [])
    assert list(g.triple_set) == [("a", "HAS", "b"), ("b", "IS-A", "d"), ("c", "HAS", "a")]


_steps = st.one_of(
    st.tuples(st.just("node"), labels),
    st.tuples(st.just("edge"), labels, relation_kinds, labels),
    st.tuples(st.just("keyed"), st.integers(0, 20), relation_kinds, st.integers(0, 20)),
    st.tuples(st.just("merge"), knowledge_graphs(max_edges=5)),
)


@given(st.lists(st.tuples(_steps, st.integers(0, 40), st.integers(0, 40)), max_size=12))
def test_added_since_lists_what_each_step_added_in_order(steps):
    g = KnowledgeGraph()
    nodes, triples = [], []  # the log kept by hand: each key and triple once

    def node(key):
        if key not in nodes:
            nodes.append(key)
        return key

    def triple(t):
        if t not in triples:
            triples.append(t)

    for step, n, e in steps:
        if step[0] == "node":
            g.add_node(step[1])
            node(normalize_label(step[1]).key)
        elif step[0] == "edge":
            g.add_edge(step[1], step[2], step[3])
            kind = normalize_relation(step[2])
            triple((node(normalize_label(step[1]).key), kind,
                    node(normalize_label(step[3]).key)))
        elif step[0] == "keyed" and nodes:
            src, tgt = nodes[step[1] % len(nodes)], nodes[step[3] % len(nodes)]
            g.add_keyed_edge(src, step[2], tgt)
            triple((src, step[2], tgt))
        elif step[0] == "merge":
            merge_local(g, step[1])
            for key in step[1].display_map():
                node(key)
            for t in step[1].triple_set:
                triple(t)
        assert g.added_since(0, 0) == (nodes, triples)
        assert g.added_since(n, e) == (nodes[n:], triples[e:])
        assert list(g.triple_set) == triples


# ---------------------------------------------------------------------------
# undirected view


def test_opposite_edges_collapse():
    g = _graph(("A", "HAS", "B"), ("B", "INFLUENCES", "A"))
    und = g.undirected_view()
    assert und.number_of_edges() == 1


def test_self_loop_is_kept_and_droppable():
    g = _graph(("A", "RELATES-TO", "A"))
    assert g.undirected_view().number_of_edges() == 1
    assert g.undirected_view(self_loops=False).number_of_edges() == 0
    assert g.self_loop_count == 1


def test_directed_cycle_becomes_undirected_cycle():
    nodes = ["A", "B", "C", "D", "E"]
    g = _graph(*[(nodes[i], "HAS", nodes[(i + 1) % 5]) for i in range(5)])
    und = g.undirected_view()
    expected = {frozenset((nodes[i].casefold(), nodes[(i + 1) % 5].casefold()))
                for i in range(5)}
    assert {frozenset(e) for e in und.edges()} == expected


# ---------------------------------------------------------------------------
# largest component


def test_component_tie_breaks_lexicographically():
    g = _graph(("P", "HAS", "Q"), ("Q", "HAS", "R"), ("R", "HAS", "P"),
               ("A", "HAS", "B"), ("B", "HAS", "C"), ("C", "HAS", "A"))
    g.add_node("Z")
    sub = largest_component(g)
    assert sub.node_keys == {"a", "b", "c"}


def test_component_ignores_edge_direction():
    # no directed path joins a and c, but the undirected edges do
    g = _graph(("A", "HAS", "B"), ("C", "HAS", "B"), ("D", "HAS", "E"))
    assert largest_component(g).node_keys == {"a", "b", "c"}


def test_empty_graph_rejected():
    with pytest.raises(EmptyGraph):
        largest_component(KnowledgeGraph())


@pytest.mark.parametrize("seed", range(10))
def test_largest_component_matches_flood_fill(seed):
    rng = random.Random(seed)
    g = KnowledgeGraph()
    names = [f"node {i}" for i in range(12)]
    for name in names:
        g.add_node(name)
    for _ in range(rng.randint(4, 14)):
        g.add_edge(rng.choice(names), "HAS", rng.choice(names))

    # brute-force flood fill over the symmetrized edge set
    adjacency = {n.casefold(): set() for n in names}
    for s, _, t in g.triples():
        adjacency[s].add(t)
        adjacency[t].add(s)
    remaining = set(adjacency)
    comps = []
    while remaining:
        start = remaining.pop()
        comp, stack = {start}, [start]
        while stack:
            v = stack.pop()
            for u in adjacency[v]:
                if u in remaining:
                    remaining.remove(u)
                    comp.add(u)
                    stack.append(u)
        comps.append(comp)
    biggest = max(len(c) for c in comps)
    expected = min((c for c in comps if len(c) == biggest), key=min)

    assert largest_component(g).node_keys == expected


def test_largest_component_induces_edges():
    g = _graph(("A", "HAS", "B"), ("B", "IS-A", "A"), ("C", "HAS", "D"))
    sub = largest_component(g)
    assert set(sub.triples()) == {("a", "HAS", "b"), ("b", "IS-A", "a")}


@given(knowledge_graphs())
def test_max_degree_is_the_largest_node_degree(g):
    assert g.max_degree() == max((g.degree(k) for k in g.node_keys), default=0)


def test_max_degree_counts_a_self_loop_twice_and_isolated_nodes_as_zero():
    g = KnowledgeGraph()
    g.add_node("lonely")
    assert g.max_degree() == 0
    g.add_edge("a", "HAS", "a")
    g.add_edge("a", "IS-A", "b")
    assert g.max_degree() == 3
