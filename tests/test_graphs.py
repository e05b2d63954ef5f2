"""Graph container and the primal/incidence constructions."""

import pytest

from tdcount.graphs import (
    Graph,
    incidence_graph,
    incidence_graph_cnf,
    primal_graph,
    primal_graph_cnf,
    write_gr,
)
from tdcount.parsers import parse_dimacs, parse_ground_program


def test_edges_are_undirected_and_deduplicated():
    g = Graph(3)
    g.add_edge(0, 1)
    g.add_edge(1, 0)
    assert g.num_edges == 1
    assert g.has_edge(0, 1) and g.has_edge(1, 0)
    assert sorted(g.edges()) == [(0, 1)]


def test_self_loop_rejected():
    g = Graph(2)
    with pytest.raises(ValueError):
        g.add_edge(1, 1)


def test_add_clique():
    g = Graph(4)
    g.add_clique([2, 0, 3])
    assert sorted(g.edges()) == [(0, 2), (0, 3), (2, 3)]
    assert g.degree(0) == 2
    assert g.degree(1) == 0
    g.add_clique([1, 1])
    assert g.degree(1) == 0
    for vertices in ([4], [0, 4], [-1], [-1, 0], [0, -4]):
        with pytest.raises(IndexError):
            g.add_clique(vertices)
    assert g.neighbors[1] == set() and g.degree(2) == 2


def test_add_clique_with_an_id_past_the_last_vertex_changes_nothing():
    g = Graph(4)
    g.add_clique([0, 1])
    for vertices in ([0, 4], [1, 2, 3, 4], [3, 9]):
        with pytest.raises(IndexError, match="out of range"):
            g.add_clique(vertices)
        assert g.neighbors == [{1}, {0}, set(), set()]


def test_add_edge_rejects_out_of_range_ids():
    g = Graph(3)
    for u, v in ((-1, 0), (0, -3), (0, 3)):
        with pytest.raises(IndexError):
            g.add_edge(u, v)
    assert g.num_edges == 0 and [g.degree(v) for v in range(3)] == [0, 0, 0]


def test_primal_graph_cliques_per_rule():
    p = parse_ground_program("a :- b, not c. d.")
    g = primal_graph(p)
    assert g.num_vertices == 4
    assert sorted(g.edges()) == [(0, 1), (0, 2), (1, 2)]


def test_primal_graph_keeps_isolated_atoms():
    p = parse_ground_program("a. b. :- a.")
    g = primal_graph(p)
    assert g.num_vertices == 2
    assert g.num_edges == 0


def test_incidence_graph_is_bipartite():
    p = parse_ground_program("a :- b. b :- not a.")
    g = incidence_graph(p)
    assert g.num_vertices == 4
    assert sorted(g.edges()) == [(0, 2), (0, 3), (1, 2), (1, 3)]
    for u, v in g.edges():
        assert (u < 2) != (v < 2)


def test_primal_graph_cnf_uses_zero_based_vertices():
    f = parse_dimacs("p cnf 3 2\n1 -2 0\n2 3 0\n")
    g = primal_graph_cnf(f)
    assert g.num_vertices == 3
    assert sorted(g.edges()) == [(0, 1), (1, 2)]


def test_incidence_graph_cnf_shape():
    f = parse_dimacs("p cnf 2 2\n1 -2 0\n2 0\n")
    g = incidence_graph_cnf(f)
    assert g.num_vertices == 4
    assert sorted(g.edges()) == [(0, 2), (1, 2), (1, 3)]


def test_write_gr_golden():
    g = Graph(3)
    g.add_edge(0, 2)
    g.add_edge(0, 1)
    assert write_gr(g) == "p tw 3 2\n1 2\n1 3\n"
