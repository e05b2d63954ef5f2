"""Undirected graphs and the primal/incidence constructions."""

from __future__ import annotations

from .model import CnfFormula, GroundProgram


class Graph:
    """Simple undirected graph on vertices 0..n-1."""

    def __init__(self, num_vertices: int):
        if num_vertices < 0:
            raise ValueError("negative vertex count")
        self.num_vertices = num_vertices
        self.neighbors: list[set[int]] = [set() for _ in range(num_vertices)]
        self._ids = frozenset(range(num_vertices))

    def add_edge(self, u: int, v: int) -> None:
        if u == v:
            raise ValueError(f"self-loop at {u}")
        if min(u, v) < 0:
            raise IndexError(f"negative vertex id in edge {u} {v}")
        at_u, at_v = self.neighbors[u], self.neighbors[v]  # an id >= n fails before any change
        at_u.add(v)
        at_v.add(u)

    def add_clique(self, vertices) -> None:
        vs = set(vertices)
        if not vs <= self._ids:  # checked before any change
            raise IndexError(
                f"vertex id out of range 0..{self.num_vertices - 1} in clique {sorted(vs)}"
            )
        neighbors = self.neighbors
        for u in vs:
            at_u = neighbors[u]
            at_u |= vs
            at_u.discard(u)

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


def vertex_count(instance: GroundProgram | CnfFormula) -> int:
    """The vertex count of an instance's atoms or variables (DIMACS var
    v is vertex v-1)."""
    if isinstance(instance, CnfFormula):
        return instance.num_vars
    return instance.num_atoms


def primal_graph(instance: GroundProgram | CnfFormula) -> Graph:
    """Atoms or variables are vertices; those sharing a rule or clause
    form a clique.  Atoms in no rule stay as isolated vertices."""
    g = Graph(vertex_count(instance))
    for rule in instance.rules:
        g.add_clique(rule.atoms)
    return g


def incidence_graph(instance: GroundProgram | CnfFormula) -> Graph:
    """Bipartite graph: atom or variable vertices 0..n-1, then one vertex
    per rule or clause."""
    n = vertex_count(instance)
    g = Graph(n + len(instance.rules))
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
