"""Projected counting: a third pass over the purged tables.

For a set of rows O at a node, `pmc` is the number of distinct
projections of extensions compatible with at least one row of O, and
`ipmc` the number compatible with every row.  The two quantities are
inclusion-exclusion duals.  Projections of rows that disagree on a
projected bag atom are disjoint, so rows are bucketed by their
projection-restricted bag assignment and cross-bucket intersections are
zero.

Unions are cheap: at an introduce or forget node the union over a row
set equals the union over the child rows it derives from (split on the two
values of an introduced projected atom, which separates the projections
outright), so `pmc` walks down without inclusion-exclusion; at a join it
expands over the row pairs that joined (a join row's derivations),
because a product of per-child unions would count phantom combinations.
Intersections take one rule,
ipmc(node, σ) = Σ_{∅≠S⊆σ} (-1)^{|S|+1} · pmc(node, S), short-cut to 1 at
a leaf or with no projected forget below, and passed to the child rows
at an introduce node.
"""

from __future__ import annotations

from itertools import combinations

from . import aspdp
from .dpcore import Mode, Row, TableStore, purge, solution_rows
from .errors import InvariantError, ProjectionOutOfRangeError
from .graphs import instance_graph
from .model import CnfFormula, GroundProgram
from .treedecomp import NodeKind, decompose

ProjTable = dict


def _row_order(row: Row):
    return (row.assignment, tuple(sorted(row.witnesses)), row.cost)


def _pair_order(pair):
    return (_row_order(pair[0]), _row_order(pair[1]))


def _subsets(items, key):
    """Non-empty subsets of `items` in `key` order, each with its sign."""
    ordered = sorted(items, key=key)
    for size in range(1, len(ordered) + 1):
        for combo in combinations(ordered, size):
            yield combo, 1 if size % 2 else -1


class ProjectionPass:
    def __init__(self, store: TableStore, proj_vertices) -> None:
        self.store = store
        self.ntd = store.ntd
        self.proj = frozenset(proj_vertices)
        self.tables: list[ProjTable] = [{} for _ in self.ntd.nodes]
        self._pmask = [
            sum(1 << i for i, v in enumerate(node.bag) if v in self.proj)
            for node in self.ntd.nodes
        ]
        # below the deepest projected forget, every extension of a row
        # projects to the row's own projected bag assignment, so the
        # counts are immediate: distinct buckets for a union, 1 for an
        # intersection
        self._pforget_below = [False] * len(self.ntd.nodes)
        for i, node in enumerate(self.ntd.nodes):
            self._pforget_below[i] = (
                node.kind is NodeKind.FORGET and node.vertex in self.proj
            ) or any(self._pforget_below[c] for c in node.children)
        self._pmc_cache: dict[tuple[int, frozenset], int] = {}
        self._pairs_cache: dict[tuple[int, frozenset], int] = {}

    def bucket_of(self, node_id: int, row: Row) -> int:
        return row.assignment & self._pmask[node_id]

    def pmc(self, node_id: int, rows: frozenset) -> int:
        """Projections compatible with at least one of `rows`."""
        if not rows:
            return 0
        if not self._pforget_below[node_id]:
            return len({self.bucket_of(node_id, row) for row in rows})
        key = (node_id, rows)
        cached = self._pmc_cache.get(key)
        if cached is not None:
            return cached
        node = self.ntd.nodes[node_id]
        if node.kind is NodeKind.LEAF:
            value = 1
        elif node.kind is NodeKind.JOIN:
            buckets: dict[int, set] = {}
            for row in rows:
                pairs = buckets.setdefault(self.bucket_of(node_id, row), set())
                pairs.update(row.origins)
            value = sum(
                self._pairs_union(node_id, frozenset(pairs))
                for pairs in buckets.values()
            )
        elif node.kind is NodeKind.INTRODUCE and node.vertex in self.proj:
            # rows that disagree on the introduced projected atom
            # project disjointly, so the union splits by its value
            pos = node.bag.index(node.vertex)
            value = 0
            for bit in (0, 1):
                origins = frozenset(
                    o
                    for row in rows
                    if (row.assignment >> pos) & 1 == bit
                    for (o,) in row.origins
                )
                value += self.pmc(node.children[0], origins)
        else:
            # introducing an unprojected atom or forgetting any atom
            # keeps the union of projections the union over origins
            origins = frozenset(o for row in rows for (o,) in row.origins)
            value = self.pmc(node.children[0], origins)
        self._pmc_cache[key] = value
        return value

    def ipmc(self, node_id: int, sigma: frozenset) -> int:
        """Projections compatible with every row of `sigma`; the rows
        must share a bucket."""
        table = self.tables[node_id]
        cached = table.get(sigma)
        if cached is not None:
            return cached
        if not sigma:
            raise InvariantError("ipmc of the empty set is undefined")
        if len({self.bucket_of(node_id, r) for r in sigma}) != 1:
            raise InvariantError("ipmc keys agree on the projected bag assignment")
        if not self._pforget_below[node_id]:
            table[sigma] = 1
            return 1
        node = self.ntd.nodes[node_id]
        if node.kind is NodeKind.LEAF:
            value = 1
        elif node.kind is NodeKind.INTRODUCE:
            # an introduce row extends exactly one child row, and rows
            # of one bucket agree on the introduced atom, so the
            # intersection passes through unchanged
            origins = set()
            for row in sigma:
                if len(row.origins) != 1:
                    raise InvariantError("an introduce row has exactly one derivation")
                origins.add(row.origins[0][0])
            value = self.ipmc(node.children[0], frozenset(origins))
        else:
            value = 0
            for combo, sign in _subsets(sigma, _row_order):
                value += sign * self.pmc(node_id, frozenset(combo))
        table[sigma] = value
        return value

    def _pairs_union(self, node_id: int, pairs: frozenset) -> int:
        """Projections compatible with at least one (left, right) pair."""
        key = (node_id, pairs)
        cached = self._pairs_cache.get(key)
        if cached is not None:
            return cached
        lchild, rchild = self.ntd.nodes[node_id].children
        total = 0
        for combo, sign in _subsets(pairs, _pair_order):
            lefts = frozenset(p[0] for p in combo)
            rights = frozenset(p[1] for p in combo)
            total += sign * self.ipmc(lchild, lefts) * self.ipmc(rchild, rights)
        self._pairs_cache[key] = total
        return total

    def root_value(self) -> int:
        sols = solution_rows(self.store.root_table)
        if not sols:
            return 0
        return self.pmc(self.ntd.root, frozenset(sols))


def build_proj_table(pass_: ProjectionPass, node_id: int) -> ProjTable:
    """Fill the node's table with one entry per bucket of its purged
    rows (recursive lookups extend the child tables on demand)."""
    buckets: dict[int, list[Row]] = {}
    for row in pass_.store.tables[node_id]:
        buckets.setdefault(pass_.bucket_of(node_id, row), []).append(row)
    for bucket in buckets.values():
        pass_.ipmc(node_id, frozenset(bucket))
    return pass_.tables[node_id]


def projection_vertices(instance, projection) -> set[int]:
    """The graph vertices of a projection onto atom ids (programs) or
    1-based variables (CNF), after checking that each is in range."""
    proj = set(projection)
    if isinstance(instance, GroundProgram):
        bad = [a for a in proj if not 0 <= a < instance.num_atoms]
        if bad:
            raise ProjectionOutOfRangeError(f"unknown atom id {bad[0]}")
        return proj
    if isinstance(instance, CnfFormula):
        bad = [v for v in proj if not 1 <= v <= instance.num_vars]
        if bad:
            raise ProjectionOutOfRangeError(f"variable {bad[0]} out of range")
        return {v - 1 for v in proj}
    raise TypeError(f"cannot project a {type(instance).__name__}")


def projected_count(instance, projection, **options) -> int:
    """Number of distinct projections of answer sets (programs, atom
    ids) or models (CNF, 1-based variables) onto `projection`."""
    vertices = projection_vertices(instance, projection)
    if any(rule.is_always_violated() for rule in instance.rules):
        return 0
    if options.get("decomp") is None:
        # Eliminating the projected vertices last makes forgets follow the
        # elimination order along every branch, so below the first
        # projected forget each row admits a single projection and the
        # inclusion-exclusion recursions bottom out early.
        options["decomp"] = decompose(
            instance_graph(instance),
            options.pop("heuristic", "min-fill"),
            options.pop("seed", 0),
            options.pop("seeds", 1),
            defer=vertices,
        )
    store, _ = aspdp.build_store(instance, Mode.COUNT, **options)
    return ProjectionPass(purge(store), vertices).root_value()
