"""Undirected graphs and the primal/incidence constructions."""

from __future__ import annotations

from .model import CnfFormula, GroundProgram


class Graph:
    """Simple undirected graph on vertices 0..n-1."""

    def __init__(self, num_vertices: int, labels: dict[int, str] | None = None):
        if num_vertices < 0:
            raise ValueError("negative vertex count")
        self.num_vertices = num_vertices
        self.neighbors: list[set[int]] = [set() for _ in range(num_vertices)]
        self.labels = labels or {}

    def add_edge(self, u: int, v: int) -> None:
        if u == v:
            raise ValueError(f"self-loop at {u}")
        self.neighbors[u].add(v)
        self.neighbors[v].add(u)

    def add_clique(self, vertices) -> None:
        vs = sorted(set(vertices))
        for i, u in enumerate(vs):
            for v in vs[i + 1 :]:
                self.add_edge(u, v)

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.neighbors[u]

    def edges(self):
        for u in range(self.num_vertices):
            for v in self.neighbors[u]:
                if u < v:
                    yield (u, v)

    @property
    def num_edges(self) -> int:
        return sum(len(ns) for ns in self.neighbors) // 2

    def degree(self, v: int) -> int:
        return len(self.neighbors[v])


def _vertices(instance: GroundProgram | CnfFormula) -> tuple[int, dict[int, str] | None]:
    """The vertex count of an instance's atoms or variables (DIMACS var
    v is vertex v-1), and a program's atom names; a CNF's variables have
    no labels."""
    if isinstance(instance, CnfFormula):
        return instance.num_vars, None
    return instance.num_atoms, {a.id: a.name for a in instance.atoms if a.name is not None}


def primal_graph(instance: GroundProgram | CnfFormula) -> Graph:
    """Atoms or variables are vertices; those sharing a rule or clause
    form a clique.  Atoms in no rule stay as isolated vertices."""
    g = Graph(*_vertices(instance))
    for rule in instance.rules:
        g.add_clique(rule.atoms)
    return g


def incidence_graph(instance: GroundProgram | CnfFormula) -> Graph:
    """Bipartite graph: atom or variable vertices 0..n-1, then one vertex
    per rule or clause, labelled `r<i>` for a program."""
    n, labels = _vertices(instance)
    if labels is not None:
        labels.update((n + i, f"r{i}") for i in range(len(instance.rules)))
    g = Graph(n + len(instance.rules), labels)
    for i, rule in enumerate(instance.rules):
        for a in rule.atoms:
            g.add_edge(a, n + i)
    return g


primal_graph_cnf = primal_graph
incidence_graph_cnf = incidence_graph


def instance_graph(instance: GroundProgram | CnfFormula, kind: str = "primal") -> Graph:
    """The primal or incidence graph of a ground program or CNF formula."""
    return (primal_graph if kind == "primal" else incidence_graph)(instance)


def write_gr(graph: Graph) -> str:
    """PACE .gr text (1-based vertices)."""
    lines = [f"p tw {graph.num_vertices} {graph.num_edges}"]
    for u, v in sorted(graph.edges()):
        lines.append(f"{u + 1} {v + 1}")
    return "\n".join(lines) + "\n"
