"""Elimination orderings, decomposition construction, validation,
nice-form conversion, and .td round trips."""

import itertools
import os
import random
import subprocess
import sys

import pytest

from tdcount import treedecomp
from tdcount.graphs import Graph, primal_graph_cnf
from tdcount.errors import ParseError
from tdcount.oracle import brute_treewidth
from tdcount.treedecomp import (
    NiceNode,
    NiceTreeDecomposition,
    NodeKind,
    TreeDecomposition,
    ViolationKind,
    decompose,
    elimination_ordering,
    make_nice,
    read_td,
    td_from_ordering,
    validate_td,
    write_td,
)

import corpus
from test_elimination_reference import reference_ordering


def path_graph(n):
    g = Graph(n)
    for v in range(n - 1):
        g.add_edge(v, v + 1)
    return g


def petersen_graph():
    g = Graph(10)
    for i in range(5):
        g.add_edge(i, (i + 1) % 5)
        g.add_edge(i, i + 5)
        g.add_edge(5 + i, 5 + (i + 2) % 5)
    return g


def assert_nice_shape(graph, ntd):
    nodes = ntd.nodes
    assert nodes[-1].bag == ()
    for i, node in enumerate(nodes):
        assert all(c < i for c in node.children)
        if node.kind is NodeKind.LEAF:
            assert node.bag == () and node.children == ()
        elif node.kind is NodeKind.INTRODUCE:
            (c,) = node.children
            assert node.vertex not in nodes[c].bag
            assert set(node.bag) == set(nodes[c].bag) | {node.vertex}
        elif node.kind is NodeKind.FORGET:
            (c,) = node.children
            assert node.vertex in nodes[c].bag
            assert set(node.bag) == set(nodes[c].bag) - {node.vertex}
        else:
            l, r = node.children
            assert nodes[l].bag == node.bag == nodes[r].bag
    covered = set()
    for node in nodes:
        covered.update(node.bag)
    assert covered == set(ntd.forget_node_of)
    bag_sets = [set(n.bag) for n in nodes]
    for u, v in graph.edges():
        assert any(u in b and v in b for b in bag_sets)


def test_path_ordering_golden():
    g = path_graph(3)
    td = td_from_ordering(g, [0, 2, 1])
    assert td.bags == [frozenset({0, 1}), frozenset({1, 2}), frozenset({1})]
    assert td.width() == 1
    assert validate_td(g, td) is None


def test_triangle_width():
    g = corpus.complete_graph(3)
    td = td_from_ordering(g, elimination_ordering(g))
    assert td.width() == 2
    assert validate_td(g, td) is None


def test_ordering_must_be_permutation():
    with pytest.raises(ValueError):
        td_from_ordering(path_graph(3), [0, 0, 1])


def test_unknown_heuristic_rejected():
    with pytest.raises(ValueError):
        elimination_ordering(path_graph(3), "best-first")


def test_ordering_is_deterministic_per_seed():
    g = corpus.random_graph(17, max_vertices=30)
    for heuristic in ("min-fill", "min-degree"):
        a = elimination_ordering(g, heuristic, seed=5)
        b = elimination_ordering(g, heuristic, seed=5)
        assert a == b
        assert sorted(a) == list(range(g.num_vertices))


@pytest.mark.parametrize("heuristic", ["min-fill", "min-degree"])
def test_ordering_scores_each_vertex_a_bounded_number_of_times(monkeypatch, heuristic):
    """The ordering re-scores only the vertices an elimination touches:
    on a banded graph that is a constant number per vertex, where a full
    rescan after every elimination would make about n²/2 evaluations."""
    calls = 0

    def counting(score):
        def wrapper(adj, v):
            nonlocal calls
            calls += 1
            return score(adj, v)
        return wrapper

    monkeypatch.setattr(treedecomp, "_min_fill_score", counting(treedecomp._min_fill_score))
    monkeypatch.setattr(treedecomp, "_min_degree_score", counting(treedecomp._min_degree_score))
    n = 2000
    graph = primal_graph_cnf(corpus.banded_cnf(1, n))
    assert sorted(elimination_ordering(graph, heuristic)) == list(range(n))
    assert calls <= 40 * n


def test_min_fill_scores_each_vertex_once(monkeypatch):
    """Min-fill scores every vertex once, at the start, and then keeps
    the scores as the graph changes, so the count is exactly n."""
    calls = 0
    score = treedecomp._min_fill_score

    def counting(adj, v):
        nonlocal calls
        calls += 1
        return score(adj, v)

    monkeypatch.setattr(treedecomp, "_min_fill_score", counting)
    n = 2000
    graph = primal_graph_cnf(corpus.banded_cnf(1, n))
    assert sorted(elimination_ordering(graph, "min-fill")) == list(range(n))
    assert calls <= n


def dense_graph(seed):
    """A random graph on up to 40 vertices with edge probability 0.3-0.7."""
    rng = random.Random(seed)
    n = rng.randint(8, 40)
    p = rng.uniform(0.3, 0.7)
    g = Graph(n)
    for u, v in itertools.combinations(range(n), 2):
        if rng.random() < p:
            g.add_edge(u, v)
    return g


def shared_neighbor_graph(seed):
    """Complete bipartite K(a, b) plus a few edges: eliminating a vertex
    of one side adds fill edges among the other side, and both ends of
    each share the rest of the first side as common neighbors."""
    rng = random.Random(seed)
    a, b = rng.randint(2, 7), rng.randint(3, 12)
    g = Graph(a + b)
    for u in range(a):
        for v in range(a, a + b):
            g.add_edge(u, v)
    for _ in range(rng.randint(0, a + b)):
        g.add_edge(*rng.sample(range(a + b), 2))
    return g


@pytest.mark.parametrize("heuristic", ["min-fill", "min-degree"])
def test_kept_scores_match_the_rescanning_reference(heuristic):
    """The scores kept through each elimination give the orderings of
    the reference, which scores every live vertex afresh at each step,
    on graphs where many fill edges share common neighbors."""
    graphs = [dense_graph(s) for s in range(24)] + [shared_neighbor_graph(s) for s in range(36)]
    for index, graph in enumerate(graphs):
        rng = random.Random(index)
        n = graph.num_vertices
        for defer in ((), frozenset(rng.sample(range(n), rng.randint(1, n - 1)))):
            for seed in range(5):
                expected = reference_ordering(graph, heuristic, seed, defer)
                assert elimination_ordering(graph, heuristic, seed, defer) == expected, (
                    index, seed, defer)


def test_min_degree_star_orders_leaves_first():
    g = Graph(4)
    for leaf in (1, 2, 3):
        g.add_edge(0, leaf)
    order = elimination_ordering(g, "min-degree", seed=0)
    assert set(order[:2]) <= {1, 2, 3}
    assert td_from_ordering(g, order).width() == 1


def test_empty_graph_decomposition():
    td = td_from_ordering(Graph(0), [])
    assert td.bags == [frozenset()]
    assert td.width() == -1
    assert_nice_shape(Graph(0), make_nice(td))


def test_validate_catches_missing_vertex():
    g = path_graph(2)
    td = TreeDecomposition([frozenset({0})], [[]], 0, 2)
    v = validate_td(g, td)
    assert v.kind is ViolationKind.VERTEX_NOT_COVERED
    assert v.witness == (1,)


def test_validate_catches_missing_edge():
    g = path_graph(2)
    td = TreeDecomposition([frozenset({0}), frozenset({1})], [[1], []], 0, 2)
    v = validate_td(g, td)
    assert v.kind is ViolationKind.EDGE_NOT_COVERED
    assert v.witness == (0, 1)


def test_validate_catches_broken_connectedness():
    g = path_graph(3)
    bags = [frozenset({0, 1}), frozenset({1, 2}), frozenset({0, 2})]
    td = TreeDecomposition(bags, [[1], [2], []], 0, 3)
    v = validate_td(g, td)
    assert v.kind is ViolationKind.CONNECTEDNESS_BROKEN


def test_validate_catches_unknown_vertex():
    g = path_graph(2)
    td = TreeDecomposition([frozenset({0, 1, 7})], [[]], 0, 2)
    v = validate_td(g, td)
    assert v.kind is ViolationKind.VERTEX_NOT_COVERED


def test_random_decompositions_are_valid():
    for seed in range(40):
        g = corpus.random_graph(seed, max_vertices=40)
        for heuristic in ("min-fill", "min-degree"):
            order = elimination_ordering(g, heuristic, seed)
            td = td_from_ordering(g, order)
            assert validate_td(g, td) is None
            ntd = make_nice(td)
            assert ntd.width() == td.width()
            assert_nice_shape(g, ntd)


def test_tree_graphs_have_width_one():
    for seed in range(15):
        g = corpus.random_tree_graph(seed)
        td = td_from_ordering(g, elimination_ordering(g))
        expected = 1 if g.num_vertices > 1 else 0
        assert td.width() == expected


def test_brute_treewidth_goldens():
    assert brute_treewidth(Graph(0)) == -1
    assert brute_treewidth(Graph(1)) == 0
    assert brute_treewidth(path_graph(5)) == 1
    assert brute_treewidth(corpus.complete_graph(4)) == 3
    assert brute_treewidth(corpus.cycle_graph(4)) == 2
    assert brute_treewidth(corpus.grid_graph(3, 3)) == 3
    assert brute_treewidth(petersen_graph()) == 4


def test_heuristics_match_brute_treewidth_on_small_graphs():
    for seed in range(30):
        g = corpus.random_graph(seed, max_vertices=9)
        exact = brute_treewidth(g)
        for heuristic in ("min-fill", "min-degree"):
            td = td_from_ordering(g, elimination_ordering(g, heuristic, seed))
            assert td.width() >= exact


def test_decompose_picks_lowest_width_then_lowest_seed():
    g = corpus.random_graph(3, max_vertices=25)
    result = decompose(g, "min-degree", seed=0, tries=6)
    widths = [
        td_from_ordering(g, elimination_ordering(g, "min-degree", s)).width()
        for s in range(6)
    ]
    assert result.width == min(widths)
    assert result.seed == widths.index(min(widths))


def test_td_write_read_round_trip():
    g = corpus.random_graph(9, max_vertices=20)
    td = td_from_ordering(g, elimination_ordering(g))
    back = read_td(write_td(td))
    assert sorted(back.bags) == sorted(td.bags)
    assert back.num_graph_vertices == td.num_graph_vertices
    assert validate_td(g, back) is None


def test_read_td_golden():
    td = read_td("c comment\ns td 2 2 3\nb 1 1 2\nb 2 2 3\n1 2\n")
    assert td.bags == [frozenset({0, 1}), frozenset({1, 2})]
    assert td.children == [[1], []]
    assert td.root == 0


def test_read_td_rejects_cycles():
    text = "s td 3 2 3\nb 1 1\nb 2 2\nb 3 3\n1 2\n2 3\n3 1\n"
    with pytest.raises(ParseError):
        read_td(text)


@pytest.mark.parametrize(
    "text, line",
    [
        ("s td x 1 1\n", 1),
        ("s td 1 1 1\nb z 1\n", 2),
        ("s td 1 1 1\nb 1 x\n", 2),
        ("s td 2 1 2\nb 1 1\nb 2 2\n1 q\n", 4),
        ("s td 1 1 1\nb\n", 2),
        ("s td 1 1 1\nb 1 5\n", 2),
        ("s td 1 1 1\nb 1 0\n", 2),
        ("s td 2 1 1\nb 1 1\nb 2 1\n1 5\n", 4),
        ("s td 2 1 1\nb 1 1\nb 2 1\n0 1\n", 4),
        ("s td 3 2 3\nb 1 1\nb 2 2\nb 3 3\n1 2\n2 3\n3 1\n", 7),
        ("s td 2 1 1\nb 1 1\n1 1\nb 2 1\n", 3),
        ("s td 2 1 1\nb 1 1\nb 2 1\n1 2\n2 1\n", 5),
        ("s td 2 1 1\n1 3\nb 1 9\n", 2),
    ],
    ids=["solution-token", "bag-id-token", "bag-vertex-token", "edge-token",
         "bare-bag", "vertex-past-count", "vertex-zero", "edge-past-count", "edge-zero",
         "cycle", "self-loop", "repeated-edge", "first-fault-in-file-order"],
)
def test_read_td_rejects_malformed_lines_at_their_line(text, line):
    with pytest.raises(ParseError) as info:
        read_td(text)
    assert info.value.line == line


def test_read_td_requires_solution_line():
    with pytest.raises(ParseError):
        read_td("b 1 1\n")


def test_read_td_rejects_disconnected_tree():
    with pytest.raises(ParseError) as info:
        read_td("s td 3 2 3\nb 1 1\nb 2 2\nb 3 3\n1 2\n")
    assert info.value.line is None  # too few edges: no single line is at fault



NOT_POST_ORDERED = """
from tdcount.treedecomp import NiceNode, NiceTreeDecomposition, NodeKind
nodes = [
    NiceNode(NodeKind.FORGET, (), 0, (1,)),
    NiceNode(NodeKind.INTRODUCE, (0,), 0, (2,)),
    NiceNode(NodeKind.LEAF, (), None, ()),
]
NiceTreeDecomposition(nodes, 1)
"""


def test_non_post_ordered_nice_decomposition_is_rejected():
    with pytest.raises(ValueError, match="post-ordered"):
        exec(NOT_POST_ORDERED)


def test_post_order_check_holds_under_python_O():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run(
        [sys.executable, "-O", "-c", NOT_POST_ORDERED],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert out.returncode == 1
    assert "ValueError: nodes must be post-ordered" in out.stderr


def _forgets_vertex_0_twice():
    return [
        NiceNode(NodeKind.LEAF, (), None, ()),
        NiceNode(NodeKind.INTRODUCE, (0,), 0, (0,)),
        NiceNode(NodeKind.FORGET, (), 0, (1,)),
        NiceNode(NodeKind.INTRODUCE, (0,), 0, (2,)),
        NiceNode(NodeKind.FORGET, (), 0, (3,)),
    ]


def test_a_vertex_forgotten_twice_is_rejected():
    with pytest.raises(ValueError, match="vertex 0 is forgotten twice"):
        NiceTreeDecomposition(_forgets_vertex_0_twice(), 1)


def test_forget_nodes_are_always_computed():
    # a caller cannot hand in a forget map and so skip the check above
    with pytest.raises(TypeError):
        NiceTreeDecomposition(_forgets_vertex_0_twice(), 1, forget_node_of={0: 2})
