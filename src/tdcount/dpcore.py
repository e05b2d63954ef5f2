"""Generic table-passing engine over nice tree decompositions.

`plan_checks` places each rule, program rule or clause constraint alike,
at one forget node.  A post-order traversal hands each node to a handler
and stores the resulting table.  Rows carry exact integer counts,
optional integer costs and rational weights, witness states for
stability checking (none for CNF), and the row's derivations, each with
one row per child, so that later passes (purge, enumeration, projection)
walk the derivation structure instead of materializing solutions.  Above
the leaves, a row's count is the sum over its derivations of the product
of their rows' counts.  `aggregate` maps solution rows to the answer.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from fractions import Fraction

from .errors import BagMismatchError, HandlerFailureError, InvariantError
from .model import Rule
from .treedecomp import NiceTreeDecomposition, NodeKind


class Mode(enum.Enum):
    COUNT = "count"
    OPTCOUNT = "optcount"
    DECISION = "decision"
    WEIGHTED = "weighted"


class Row:
    """One table row.

    assignment      bitmask over the sorted bag
    witnesses       frozenset of (bitmask, strict) counter-witness states
    count           number of distinct decided-atom extensions, >= 1
    cost            minimize cost of the forgotten atoms below
    weight          product of the forgotten variables' literal weights
                    (weighted counting only, else None)
    origins         derivations, each a tuple with one row per child:
                    () at a leaf, ((child,), ...) at an introduce or
                    forget node, ((left, right), ...) at a join node
    """

    __slots__ = ("assignment", "witnesses", "count", "cost", "weight", "origins")

    def __init__(self, assignment, witnesses, count, cost=0, weight=None, origins=()):
        self.assignment = assignment
        self.witnesses = witnesses
        self.count = count
        self.cost = cost
        self.weight = weight
        self.origins = origins

    def key(self):
        return (self.assignment, self.witnesses, self.cost)

    def __repr__(self):  # compact, deterministic; used by store fingerprints
        ws = sorted(self.witnesses)
        base = f"Row(a={self.assignment:b}, w={ws}, n={self.count}, c={self.cost}"
        if self.weight is not None:
            base += f", wt={self.weight}"
        return base + ")"


class DpTable:
    """Rows keyed uniquely by (assignment, witnesses, cost); merging sums
    counts and weights and concatenates derivations.  A handler derives
    at most one row per key from each child row (unary nodes) or each
    joined pair, so no derivation is merged twice."""

    def __init__(self, node_id: int):
        self.node_id = node_id
        self.rows: dict[tuple, Row] = {}

    def add(self, row: Row) -> None:
        if row.count < 1:
            raise ValueError("row count must be positive")
        existing = self.rows.get(row.key())
        if existing is None:
            self.rows[row.key()] = row
            return
        existing.count += row.count
        if existing.weight is not None:
            existing.weight += row.weight
        existing.origins += row.origins

    def __len__(self):
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows.values())

    def total_count(self) -> int:
        return sum(r.count for r in self.rows.values())

    def max_witness_set(self) -> int:
        return max((len(r.witnesses) for r in self.rows.values()), default=0)


@dataclass
class Handlers:
    leaf: callable
    introduce: callable
    forget: callable
    join: callable


class TableStore:
    def __init__(self, ntd: NiceTreeDecomposition, mode: Mode):
        self.ntd = ntd
        self.mode = mode
        self.tables: list[DpTable | None] = [None] * len(ntd.nodes)

    @property
    def root_table(self) -> DpTable:
        return self.tables[self.ntd.root]

    def fingerprint(self) -> str:
        """Deterministic textual form of every table, for equality checks."""
        parts = []
        for i, table in enumerate(self.tables):
            rows = sorted(repr(r) for r in table) if table is not None else []
            parts.append(f"node {i}: " + "; ".join(rows))
        return "\n".join(parts)


def _check_table(node, table: DpTable, mode: Mode) -> None:
    bag_size = len(node.bag)
    witness_cap = 1 << (bag_size + 1)
    witness_free = True
    for row in table:
        if len(row.witnesses) > witness_cap:
            raise InvariantError("witness-set bound exceeded")
        if row.witnesses:
            witness_free = False
            # the non-strict self-witness must survive every step
            if (row.assignment, False) not in row.witnesses:
                raise InvariantError("self-witness lost")
    if witness_free and mode is not Mode.OPTCOUNT and len(table) > (1 << bag_size):
        raise InvariantError("row bound exceeded for witness-free tables")


def _prune_dominated(table: DpTable) -> DpTable:
    """Optimization mode: per (assignment, witnesses), only cost-minimal
    rows can extend to optimal solutions, so the rest are dropped."""
    best: dict[tuple, int] = {}
    for row in table:
        k = (row.assignment, row.witnesses)
        if k not in best or row.cost < best[k]:
            best[k] = row.cost
    pruned = DpTable(table.node_id)
    for row in table:
        if row.cost == best[(row.assignment, row.witnesses)]:
            pruned.rows[row.key()] = row
    return pruned


def traverse(
    ntd: NiceTreeDecomposition,
    handlers: Handlers,
    mode: Mode = Mode.COUNT,
    trace=None,
) -> TableStore:
    """Fill a table for every node in post-order.  Handler exceptions are
    wrapped in HandlerFailureError with the offending node attached."""
    store = TableStore(ntd, mode)
    for i, node in enumerate(ntd.nodes):
        try:
            if node.kind is NodeKind.LEAF:
                table = handlers.leaf(i, node)
            elif node.kind is NodeKind.INTRODUCE:
                table = handlers.introduce(i, node, store.tables[node.children[0]])
            elif node.kind is NodeKind.FORGET:
                table = handlers.forget(i, node, store.tables[node.children[0]])
            else:
                left, right = node.children
                table = handlers.join(i, node, store.tables[left], store.tables[right])
            if mode is Mode.OPTCOUNT:
                table = _prune_dominated(table)
            _check_table(node, table, mode)
        except Exception as exc:
            raise HandlerFailureError(i, node.kind.value) from exc
        store.tables[i] = table
        if trace is not None:
            record = {
                "node": i,
                "type": node.kind.value,
                "bag": list(node.bag),
                "rows": len(table),
                "max_witness_set": table.max_witness_set(),
            }
            trace.write(json.dumps(record, sort_keys=True) + "\n")
    return store


def solution_rows(table: DpTable) -> list[Row]:
    """Rows with no strict witness left: they describe solutions."""
    return [r for r in table if not any(strict for _, strict in r.witnesses)]


def purge(store: TableStore) -> TableStore:
    """Drop every row not reachable from a root solution row along
    derivations.  Root aggregates are unchanged by construction."""
    ntd = store.ntd
    marked: list[set[int]] = [set() for _ in ntd.nodes]
    root = ntd.root
    for row in solution_rows(store.root_table):
        marked[root].add(id(row))
    for i in range(root, -1, -1):
        node = ntd.nodes[i]
        table = store.tables[i]
        if not node.children:
            continue
        for row in table:
            if id(row) not in marked[i]:
                continue
            for derivation in row.origins:
                for child, ref in zip(node.children, derivation):
                    marked[child].add(id(ref))
    out = TableStore(ntd, store.mode)
    for i, table in enumerate(store.tables):
        kept = DpTable(i)
        for row in table:
            if id(row) in marked[i]:
                kept.rows[row.key()] = row
        out.tables[i] = kept
    return out


def root_aggregate(store: TableStore, mode: Mode):
    """Aggregate the root table's solution rows."""
    ntd = store.ntd
    if ntd.nodes[ntd.root].bag != ():
        raise InvariantError("root bag must be empty")
    return aggregate(solution_rows(store.root_table), mode)


def aggregate(sols: list[Row], mode: Mode):
    """The mode's answer from solution rows: a count, a consistency flag,
    a (cost, count) pair or a weight; no rows give an inconsistent answer."""
    if mode is Mode.COUNT:
        return sum(r.count for r in sols)
    if mode is Mode.DECISION:
        return bool(sols)
    if mode is Mode.OPTCOUNT:
        if not sols:
            return (None, 0)
        best = min(r.cost for r in sols)
        return (best, sum(r.count for r in sols if r.cost == best))
    if mode is Mode.WEIGHTED:
        return sum((r.weight for r in sols), Fraction(0))
    raise ValueError(f"unknown mode {mode}")


def plan_checks(ntd: NiceTreeDecomposition, rules: list[Rule]) -> dict[int, list[Rule]]:
    """Map each forget node to the rules (program rules or clause
    constraints) checked there: each rule once, at the forget node of its
    earliest-forgotten atom, whose child bag holds all of the rule's atoms
    (checked here).  An atomless rule is always violated and has no forget
    node, so it raises ValueError: callers answer such instances first."""
    plan: dict[int, list[Rule]] = {}
    for idx, rule in enumerate(rules):
        atoms = rule.atoms
        if not atoms:
            raise ValueError(f"constraint {idx} has no atoms and is always violated")
        node_id = min(ntd.forget_node_of[a] for a in atoms)
        node = ntd.nodes[node_id]
        child_bag = ntd.nodes[node.children[0]].bag
        if not atoms <= set(child_bag):
            raise InvariantError("constraint atoms must share the child bag")
        plan.setdefault(node_id, []).append(rule)
    return plan


def constraint_masks(constraints: list[Rule], bag: tuple[int, ...]) -> list[tuple[int, int, int]]:
    """(head, body_pos, body_neg) bitmasks over the sorted bag.  An
    assignment A violates (head, pos, neg) when pos & A == pos,
    neg & A == 0 and head & A == 0."""
    pos_of = {a: i for i, a in enumerate(bag)}

    def mask(atoms):
        return sum(1 << pos_of[a] for a in atoms)

    return [(mask(c.head), mask(c.body_pos), mask(c.body_neg)) for c in constraints]


def require_same_bag(node, left_bag, right_bag) -> None:
    if left_bag != right_bag or tuple(left_bag) != node.bag:
        raise BagMismatchError(
            f"join bags differ: {left_bag} vs {right_bag} at bag {node.bag}"
        )


# --- bit helpers shared by the concrete handlers ---


def insert_bit(mask: int, pos: int, bit: int) -> int:
    low = mask & ((1 << pos) - 1)
    high = (mask >> pos) << (pos + 1)
    return high | (bit << pos) | low


def remove_bit(mask: int, pos: int) -> int:
    low = mask & ((1 << pos) - 1)
    high = (mask >> (pos + 1)) << pos
    return high | low
