import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kgexpand import core
from kgexpand.core import (
    LABEL_CACHE_CHARS,
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


def test_label_cache_keeps_types_apart_and_passes_other_input_through():
    # 1 == True and hash(1) == hash(True): a cache keyed on the value alone
    # would answer one with the other's label
    assert [normalize_label(raw).display for raw in (1, True, "1", 1.0, True, 1)] == [
        "1", "True", "1", "1.0", "True", "1"]
    assert [normalize_relation(raw) for raw in (1, True, "true", 1)] == [
        "1", "TRUE", "TRUE", "1"]
    assert normalize_label(["a", "b"]).display == "['a', 'b']"     # unhashable
    assert normalize_relation({"has": 1}) == "{'HAS': 1}"
    assert normalize_label(" Cached  Label ") is normalize_label(" Cached  Label ")
    long = "x" * (LABEL_CACHE_CHARS + 1)
    size = core._cached_label.cache_info().currsize
    assert normalize_label(long).display == long
    assert core._cached_label.cache_info().currsize == size


@pytest.mark.parametrize("normalize, cached, raw, message", [
    (normalize_label, core._cached_label, " \t ",
     "label is empty after normalization: ' \\t '"),
    (normalize_label, core._cached_label, "a\x01",
     "label has a character XML cannot hold: 'a\\x01'"),
    (normalize_relation, core._cached_relation, "  ", "relation kind is empty: '  '"),
    (normalize_relation, core._cached_relation, "\ud800",
     "relation kind has a character XML cannot hold: '\\ud800'"),
])
def test_label_cache_does_not_cache_a_failure(normalize, cached, raw, message):
    before = cached.cache_info()
    for _ in range(2):
        with pytest.raises(InvalidLabel) as exc:
            normalize(raw)
        assert str(exc.value) == message
    after = cached.cache_info()
    assert (after.hits, after.misses, after.currsize) == (
        before.hits, before.misses + 2, before.currsize)


@given(st.text(max_size=12))
def test_cached_normalizers_match_the_uncached_ones(raw):
    for normalize, uncached in ((normalize_label, core._label),
                                (normalize_relation, core._relation)):
        outcomes = []
        for f in (normalize, normalize, uncached):
            try:
                outcomes.append(f(raw))
            except InvalidLabel as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1] == outcomes[2]


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
    assert g.added_since(0, 0)[1] == [("a", "HAS", "b"), ("b", "IS-A", "d"), ("c", "HAS", "a")]


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
            for t in step[1].added_since(0, 0)[1]:
                triple(t)
        assert g.added_since(0, 0) == (nodes, triples)
        assert g.added_since(n, e) == (nodes[n:], triples[e:])


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


def _graph_of(nodes, triples):
    g = KnowledgeGraph()
    for v in nodes:
        g.add_node(v)
    for s, kind, t in triples:
        g.add_edge(s, kind, t)
    return g


@st.composite
def component_graphs(draw):
    """Graphs on a few of nine keys, added in any order, so components often
    tie in size; isolated nodes, self-loops and several relation kinds
    between one pair come up often."""
    nodes = draw(st.lists(st.sampled_from("abcdefghi"), min_size=1, unique=True))
    ends = st.sampled_from(nodes)
    return _graph_of(nodes, draw(st.lists(st.tuples(ends, relation_kinds, ends),
                                          max_size=10)))


@given(component_graphs())
@example(_graph_of("i", []))
@example(_graph_of("ih", [("i", "HAS", "i")]))
@example(_graph_of("efgabc", [("e", "HAS", "f"), ("f", "IS-A", "g"), ("a", "HAS", "b"),
                              ("b", "HAS", "c"), ("a", "IS-A", "b")]))
@example(_graph_of("dcba", [("d", "HAS", "c"), ("c", "HAS", "d"), ("b", "HAS", "b"),
                            ("b", "IS-A", "a"), ("a", "IS-A", "b")]))
@settings(max_examples=300, deadline=None)
def test_largest_component_matches_the_networkx_oracle(g):
    sub = largest_component(g)
    lcc = oracles.lcc_nodes(g.undirected_view())
    assert sub.display_map() == {v: g.display(v) for v in sorted(lcc)}
    assert list(sub.display_map()) == sorted(lcc)
    assert sub.added_since(0, 0)[1] == [t for t in g.added_since(0, 0)[1]
                                        if t[0] in lcc and t[2] in lcc]


@given(knowledge_graphs())
def test_max_degree_is_the_largest_node_degree(g):
    # each node's in+out degree counted triple by triple, a self-loop twice
    degree = {v: sum((s == v) + (t == v) for s, _, t in g.triples()) for v in g.node_keys}
    assert g.max_degree() == max(degree.values(), default=0)


def test_max_degree_counts_a_self_loop_twice_and_isolated_nodes_as_zero():
    g = KnowledgeGraph()
    g.add_node("lonely")
    assert g.max_degree() == 0
    g.add_edge("a", "HAS", "a")
    g.add_edge("a", "IS-A", "b")
    assert g.max_degree() == 3
