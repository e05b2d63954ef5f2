"""Projected counting, by one of two passes.

On a decomposition that meets the path condition (`one_pass_holds`: no
forget of an unprojected vertex has a forget of a projected one below
it), one lean table pass counts the projections of a program's answer
sets or a CNF's models (Fichte, Hecher, Morak and Woltran, SAT 2018):
a key's value is the number of distinct projections onto the projected
vertices forgotten below, taken as the union of a program's sets of
check states at an unprojected forget, the SUM at a projected forget and
the product at a join (`dpcore.projected_values`).  The decomposition
`projected_count` builds eliminates the projected vertices last, so it
meets the condition.

A caller-given decomposition that fails the condition takes
`ProjectionPass`: a pass from the root's solution rows of the `Row`
store down their derivations, so it reads only rows some solution uses
and needs no purge.

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
ipmc(node, σ) = Σ_{∅≠S⊆σ} (-1)^{|S|+1} · pmc(node, S), short-cut to 1
with no projected forget below (so at every leaf), and passed to the
child rows at an introduce node.
"""

from __future__ import annotations

from itertools import combinations

from . import aspdp
from .dpcore import Mode, Row, TableStore, projected_values, root_aggregate, solution_rows
from .errors import InvariantError, ProjectionOutOfRangeError
from .graphs import instance_graph
from .model import CnfFormula, GroundProgram, has_atomless_rule
from .treedecomp import NiceTreeDecomposition, NodeKind, decompose


def _subsets(items):
    """Non-empty subsets of `items`, each with its sign; any order gives
    the same exact sum and the same frozenset-keyed cache entries."""
    for size in range(1, len(items) + 1):
        for combo in combinations(items, size):
            yield combo, 1 if size % 2 else -1


class ProjectionPass:
    def __init__(self, store: TableStore, proj_vertices) -> None:
        self.store = store
        self.ntd = store.ntd
        self.proj = frozenset(proj_vertices)
        self.tables: list[dict[frozenset, int]] = [{} for _ in self.ntd.nodes]
        self._pmask = [
            sum(1 << i for i, v in enumerate(node.bag) if v in self.proj)
            for node in self.ntd.nodes
        ]
        # below the deepest projected forget, every extension of a row
        # projects to the row's own projected bag assignment, so the
        # counts are immediate: distinct buckets for a union, 1 for an
        # intersection
        self._pforget_below = _projected_forget_below(self.ntd, self.proj)
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
        if node.kind is NodeKind.JOIN:
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
        if node.kind is NodeKind.INTRODUCE:
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
            for combo, sign in _subsets(sigma):
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
        for combo, sign in _subsets(pairs):
            lefts = frozenset(p[0] for p in combo)
            rights = frozenset(p[1] for p in combo)
            total += sign * self.ipmc(lchild, lefts) * self.ipmc(rchild, rights)
        self._pairs_cache[key] = total
        return total

    def root_value(self) -> int:
        sols = solution_rows(self.store)
        if not sols:
            return 0
        return self.pmc(self.ntd.root, frozenset(sols))


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


def _projected_forget_below(ntd: NiceTreeDecomposition, vertices) -> list[bool]:
    """Per node, whether a forget of a vertex of `vertices` lies at or
    below it."""
    below: list[bool] = []
    for node in ntd.nodes:
        below.append(
            (node.kind is NodeKind.FORGET and node.vertex in vertices)
            or any(below[c] for c in node.children)
        )
    return below


def one_pass_holds(ntd: NiceTreeDecomposition, vertices) -> bool:
    """The path condition of the one pass: no forget of a vertex outside
    `vertices` has a forget of one inside below it."""
    below = _projected_forget_below(ntd, vertices)
    return not any(
        node.kind is NodeKind.FORGET and node.vertex not in vertices and below[node.children[0]]
        for node in ntd.nodes
    )


def projected_count(instance, projection, **options) -> int:
    """Number of distinct projections of answer sets (programs, atom
    ids) or models (CNF, 1-based variables) onto `projection`."""
    vertices = projection_vertices(instance, projection)
    if has_atomless_rule(instance):
        return 0
    if options.get("decomp") is None:
        # Eliminating the projected vertices last makes forgets follow the
        # elimination order along every branch: every unprojected forget
        # lies below every projected one, the one pass's path condition,
        # for programs and CNFs alike
        options["decomp"] = decompose(
            instance_graph(instance),
            options.pop("heuristic", "min-fill"),
            options.pop("seed", 0),
            options.pop("seeds", 1),
            defer=vertices,
        )
    if one_pass_holds(options["decomp"].ntd, vertices):
        store, _ = aspdp.table_pass(instance, projected_values(vertices), **options)
        return root_aggregate(store, None)
    store, _ = aspdp.build_store(instance, Mode.COUNT, **options)
    return ProjectionPass(store, vertices).root_value()
