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


def primal_graph(program: GroundProgram) -> Graph:
    """Atoms are vertices; atoms sharing a rule form a clique.
    Atoms in no rule stay as isolated vertices."""
    labels = {a.id: a.name for a in program.atoms if a.name is not None}
    g = Graph(program.num_atoms, labels)
    for rule in program.rules:
        g.add_clique(rule.atoms)
    return g


def incidence_graph(program: GroundProgram) -> Graph:
    """Bipartite graph: atom vertices 0..n-1, then one vertex per rule."""
    n = program.num_atoms
    labels = {a.id: a.name for a in program.atoms if a.name is not None}
    for i in range(len(program.rules)):
        labels[n + i] = f"r{i}"
    g = Graph(n + len(program.rules), labels)
    for i, rule in enumerate(program.rules):
        for a in rule.atoms:
            g.add_edge(a, n + i)
    return g


def primal_graph_cnf(formula: CnfFormula) -> Graph:
    """Variables (0-based: DIMACS var v is vertex v-1) with one clique
    per clause."""
    g = Graph(formula.num_vars)
    for clause in formula.clauses:
        g.add_clique(abs(lit) - 1 for lit in clause)
    return g


def incidence_graph_cnf(formula: CnfFormula) -> Graph:
    """Bipartite variable/clause graph, mirroring incidence_graph."""
    n = formula.num_vars
    g = Graph(n + formula.num_clauses)
    for i, clause in enumerate(formula.clauses):
        for lit in clause:
            g.add_edge(abs(lit) - 1, n + i)
    return g


def instance_graph(instance: GroundProgram | CnfFormula, kind: str = "primal") -> Graph:
    """The primal or incidence graph of a ground program or CNF formula."""
    if isinstance(instance, GroundProgram):
        return primal_graph(instance) if kind == "primal" else incidence_graph(instance)
    return primal_graph_cnf(instance) if kind == "primal" else incidence_graph_cnf(instance)


def write_gr(graph: Graph) -> str:
    """PACE .gr text (1-based vertices)."""
    lines = [f"p tw {graph.num_vertices} {graph.num_edges}"]
    for u, v in sorted(graph.edges()):
        lines.append(f"{u + 1} {v + 1}")
    return "\n".join(lines) + "\n"
