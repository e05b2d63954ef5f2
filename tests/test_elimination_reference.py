"""Pins the one-pass elimination in `treedecomp` to the earlier two-pass
construction, kept here as the reference: the greedy ordering was
computed on one fill-in graph and the bags on a second one."""

import json
import random

import pytest

from tdcount import cli
from tdcount.graphs import (
    Graph,
    incidence_graph,
    incidence_graph_cnf,
    primal_graph,
    primal_graph_cnf,
)
from tdcount.model import render_program
from tdcount.parsers import parse_dimacs, parse_ground_program
from tdcount.treedecomp import (
    TreeDecomposition,
    decompose,
    elimination_ordering,
    make_nice,
    td_from_ordering,
)

import corpus

HEURISTICS = ("min-fill", "min-degree")
SEEDS = range(5)


def _min_degree_score(adj, v):
    return len(adj[v])


def _min_fill_score(adj, v):
    ns = adj[v]
    missing = 0
    for u in ns:
        missing += len(ns - adj[u]) - 1
    return missing // 2


def reference_ordering(graph, heuristic="min-fill", seed=0, defer=()):
    score = _min_fill_score if heuristic == "min-fill" else _min_degree_score
    deferred = frozenset(defer)
    rng = random.Random(seed)
    adj = [set(ns) for ns in graph.neighbors]
    alive = sorted(range(graph.num_vertices))
    order = []
    while alive:
        pool = [v for v in alive if v not in deferred] or alive
        best_score = None
        ties = []
        for v in pool:
            s = score(adj, v)
            if best_score is None or s < best_score:
                best_score = s
                ties = [v]
            elif s == best_score:
                ties.append(v)
        v = ties[0] if len(ties) == 1 else rng.choice(ties)
        order.append(v)
        ns = adj[v]
        for u in ns:
            adj[u].discard(v)
        ns = sorted(ns)
        for i, u in enumerate(ns):
            for w in ns[i + 1 :]:
                adj[u].add(w)
                adj[w].add(u)
        alive.remove(v)
    return order


def reference_td(graph, ordering):
    n = graph.num_vertices
    if n == 0:
        return TreeDecomposition([frozenset()], [[]], 0, 0)
    pos = {v: i for i, v in enumerate(ordering)}
    adj = [set(ns) for ns in graph.neighbors]
    bags = [frozenset()] * n
    parent = [None] * n
    for i, v in enumerate(ordering):
        ns = adj[v]
        bags[i] = frozenset(ns | {v})
        if ns:
            parent[i] = pos[min(ns, key=lambda x: pos[x])]
        for u in ns:
            adj[u].discard(v)
        ns = sorted(ns)
        for a_i, u in enumerate(ns):
            for w in ns[a_i + 1 :]:
                adj[u].add(w)
                adj[w].add(u)
    root = n - 1
    children = [[] for _ in range(n)]
    for i in range(n):
        if i == root:
            continue
        children[parent[i] if parent[i] is not None else root].append(i)
    return TreeDecomposition(bags, children, root, n)


def reference_decompose(graph, heuristic, seed, tries):
    best = None
    for s in range(seed, seed + tries):
        td = reference_td(graph, reference_ordering(graph, heuristic, s))
        if best is None or td.width() < best[0]:
            best = (td.width(), s, td)
    return best


def corpus_graphs():
    graphs = [corpus.random_graph(seed, max_vertices=40) for seed in range(30)]
    graphs += [primal_graph(corpus.random_program(seed)) for seed in range(10)]
    graphs += [incidence_graph(corpus.random_program(seed)) for seed in range(10)]
    graphs += [primal_graph_cnf(corpus.random_cnf(seed)) for seed in range(10)]
    graphs += [incidence_graph_cnf(corpus.random_cnf(seed)) for seed in range(10)]
    graphs += [corpus.cycle_graph(9), corpus.grid_graph(4, 5), corpus.complete_graph(6)]
    graphs.append(corpus.random_graph(0, max_vertices=1))
    return graphs


def defer_sets(graph, index):
    rng = random.Random(index)
    n = graph.num_vertices
    return [(), frozenset(rng.sample(range(n), rng.randint(0, n)))]


def same_td(a, b):
    return (a.bags, a.children, a.root, a.num_graph_vertices) == (
        b.bags,
        b.children,
        b.root,
        b.num_graph_vertices,
    )


def test_empty_graph_matches_reference():
    graph = Graph(0)
    assert elimination_ordering(graph) == reference_ordering(graph) == []
    assert same_td(td_from_ordering(graph, []), reference_td(graph, []))
    result = decompose(graph)
    assert (result.width, result.seed) == reference_decompose(graph, "min-fill", 0, 1)[:2]


def test_orderings_bags_and_nice_nodes_match_reference():
    cases = 0
    for index, graph in enumerate(corpus_graphs()):
        for defer in defer_sets(graph, index):
            for heuristic in HEURISTICS:
                for seed in SEEDS:
                    order = elimination_ordering(graph, heuristic, seed, defer)
                    expected = reference_ordering(graph, heuristic, seed, defer)
                    assert order == expected, (index, heuristic, seed, defer)
                    td = td_from_ordering(graph, order)
                    ref_td = reference_td(graph, expected)
                    assert same_td(td, ref_td), (index, heuristic, seed, defer)
                    assert make_nice(td).nodes == make_nice(ref_td).nodes
                    cases += 1
        for heuristic in HEURISTICS:
            width, best_seed, ref_td = reference_decompose(graph, heuristic, 0, 5)
            result = decompose(graph, heuristic, 0, 5)
            assert (result.width, result.seed) == (width, best_seed)
            assert same_td(result.td, ref_td)
            assert result.ntd.nodes == make_nice(ref_td).nodes
    assert cases >= 1000


@pytest.mark.parametrize("kind", ["primal", "incidence"])
def test_td_stats_widths_match_reference(tmp_path, capsys, kind):
    program_graph = primal_graph if kind == "primal" else incidence_graph
    cnf_graph = primal_graph_cnf if kind == "primal" else incidence_graph_cnf
    inputs = []
    for seed in range(3):
        text = render_program(corpus.random_program(seed))
        inputs.append(("lp", text, program_graph(parse_ground_program(text))))
        text = corpus.dimacs_text(corpus.random_cnf(seed))
        inputs.append(("cnf", text, cnf_graph(parse_dimacs(text))))
    for i, (suffix, text, graph) in enumerate(inputs):
        path = tmp_path / f"in{i}.{suffix}"
        path.write_text(text)
        for heuristic in HEURISTICS:
            argv = ["td-stats", str(path), "--json", "--graph", kind,
                    "--heuristic", heuristic, "--seed", "3"]
            assert cli.run(argv) == 0
            stats = json.loads(capsys.readouterr().out)["result"]
            expected = [
                {"seed": s, "width": reference_td(graph, reference_ordering(graph, heuristic, s)).width()}
                for s in range(3, 8)
            ]
            assert stats["widths"] == expected
            width, best_seed, _ = reference_decompose(graph, heuristic, 3, 5)
            assert (stats["best_width"], stats["best_seed"]) == (width, best_seed)


def test_orderings_match_reference_on_larger_graphs():
    """Banded CNFs and a grid are large enough for big tie buckets and
    for fill-in that changes the scores of N(N(v)); seed 1's banded CNF
    is the benchmark's family, where min-fill lowers those scores by the
    fill edges whose ends they are adjacent to."""
    graphs = [primal_graph_cnf(corpus.banded_cnf(n, n)) for n in (200, 400)]
    graphs.append(primal_graph_cnf(corpus.banded_cnf(1, 150)))
    graphs.append(corpus.grid_graph(5, 20))
    for index, graph in enumerate(graphs):
        n = graph.num_vertices
        for defer in ((), range(n // 2, n // 2 + 20), range(0, n, 7)):
            for heuristic in HEURISTICS:
                expected = {s: reference_ordering(graph, heuristic, s, defer) for s in range(3)}
                for seed, order in expected.items():
                    assert elimination_ordering(graph, heuristic, seed, defer) == order, (
                        index, heuristic, seed, defer)
                if defer:
                    continue
                tds = {s: reference_td(graph, order) for s, order in expected.items()}
                best_seed = min(tds, key=lambda s: tds[s].width())
                result = decompose(graph, heuristic, 0, 3)
                assert (result.width, result.seed) == (tds[best_seed].width(), best_seed)
                assert same_td(result.td, tds[best_seed])
