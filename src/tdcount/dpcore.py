"""Generic table-passing engine over nice tree decompositions.

`plan_checks` places each rule, program rule or clause constraint alike,
at one forget node, as its (head, body_pos, body_neg) masks over the
node's child bag.  One post-order loop (`_post_order`) runs every pass,
each of which gives only its per-node `build` and its trace `report`;
`traverse` builds each node's table from the entries its handler
yields.  Every table is keyed by (assignment, state): a bag assignment
and a state of the pass's check state (`aspdp.CheckState`), which alone
knows its format: it bounds each table and tells the root's solutions.

Each mode has one value kind (`Values`, made by `lean_values`): its
value arithmetic, a semiring with per-atom labels, as in algebraic model
counting (Kimmig, Van den Broeck and De Raedt, J. Applied Logic 2017).
A value is a count (COUNT), a (cost, count) pair (OPTCOUNT) or a weight
numerator over the product of each forgotten variable's common weight
denominator (WEIGHTED).  The kind gives a leaf's value, the product at
joins, the merge rule of two values of one key, the root total and the
labels charged at forget nodes; `Values`' methods make every mode's
handler entries from them.  A lean pass maps each key to its bare value
and drops each child table once its parent is built.  A CNF's lean
COUNT and WEIGHTED passes, whose keys carry no state, run on dense
tables instead (`vector_traverse`): a list of 2^|bag| values indexed by
the bag assignment, 0 for a missing key, scaled by the kind's factors
(`Values.scale`).  A tight program's lean COUNT and OPTCOUNT passes,
whose keys carry a support mask, run on packed int keys
(`packed_traverse`): the key (A, M) is the one int A | M << width, so
that a node's steps are a few int operations per key, on the kind's
values and costs (`Values.charges`).  `row_values` makes a lean kind's
`Row` kind, whose rows carry the same values plus their derivations,
each with one row per child, so that later passes (purge, enumeration,
projection) walk the derivation structure instead of materializing
solutions; every `Row` table is kept until the pass ends.

A table keeps one value per key, of the cheapest cost seen: values of
equal cost merge, so above the leaves a count is the sum over a key's
derivations of the product of their counts.  Outside optimization there
is no cost and merging is plain summing.  The dense and packed passes
return the answer, their kind's total of the root's values;
`root_aggregate` gives it from the root solution keys of a `traverse`
store.

`projected_traverse`, the pass of projected counts, maps sets of rows
to counts of projections, from the entries of `PROVENANCE`, which name
their preimage and carry no value.  A CNF's projected count, whose rows
carry no state, runs on bitsets instead (`projected_bitset_traverse`):
each set of rows is one int that holds the set's unprojected bag
assignments as bits, under the projected bag bits its rows share, so
one big-int operation works on a whole set.
"""

from __future__ import annotations

import enum
import json
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace

from .errors import BagMismatchError, HandlerFailureError, InvariantError
from .model import Rule
from .treedecomp import NiceTreeDecomposition, NodeKind


class Mode(enum.Enum):
    COUNT = "count"
    OPTCOUNT = "optcount"
    WEIGHTED = "weighted"


class Row:
    """One row of the `Row` store, the only store that keeps derivations.

    assignment      bitmask over the sorted bag
    state           the key's state of the pass's check state
                    (`aspdp.CheckState`)
    value           the pass's value for the row's key, as its mode's
                    lean kind computes it (`lean_values`): a count, a
                    (cost, count) pair or a weight numerator
    origins         derivations, each a tuple with one row per child:
                    () at a leaf, ((child,), ...) at an introduce or
                    forget node, ((left, right), ...) at a join node
    """

    __slots__ = ("assignment", "state", "value", "origins")

    def __init__(self, assignment, state, value, origins):
        self.assignment = assignment
        self.state = state
        self.value = value
        self.origins = origins


class DpTable:
    """`Row`s keyed uniquely by (assignment, state), as the value kind's
    table builder kept them."""

    def __init__(self, rows: dict[tuple, Row]):
        self.rows = rows

    def __len__(self):
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows.values())

    def keys(self):
        return self.rows.keys()

    def items(self):
        return self.rows.items()

    def max_witness_set(self) -> int:
        """The largest witness set; 0 for support and CNF tables."""
        return _max_witness_set(self.rows)


def _max_witness_set(keys) -> int:
    """The largest witness set, for `--trace`; reads the state's type."""
    return max((sum(map(int.bit_count, s)) for _, s in keys if isinstance(s, tuple)), default=0)


class Values:
    """A mode's value arithmetic, a semiring with per-atom labels: `one`
    is a leaf's value and `times(left, right)` the value of a joined
    pair.  `merge(old, new)` is the value of a key that receives a second
    value: `new` itself when it replaces `old`, `old` itself when `new`
    is dropped, else a merged value.  `least(values)` is the smallest
    count of a table, which must be at least 1, and `total(values)` the
    mode's answer from the root's solution values.  The labels are
    `charges(atom)` for OPTCOUNT, the costs (if false, if true) that
    forgetting `atom` adds, or else `scale(atom)`, the integer factors
    (if false, if true) by which it multiplies a value; the dense and
    packed passes read them too.  `table(entries)` builds a lean table,
    a dict from key to value, from (key, value) entries.

    The methods make the entries a handler yields for a key: `leaf(key)`
    a leaf's, `carry(key, value)` an introduce's, which keeps the child's
    value, `forget(atom)` the step `(key, value, bit) -> entry | None` of
    the node forgetting `atom` with truth `bit`, which charges the atom's
    label and gives None when the value becomes 0, and `join(key, left,
    right)` a joined pair's."""

    __slots__ = ("mode", "one", "times", "merge", "least", "total", "scale", "charges", "table")
    derivations = False  # lean tables keep no derivations

    def __init__(self, mode, one, times, merge, least, total, scale=None, charges=None):
        self.mode = mode
        self.one = one
        self.times = times
        self.merge = merge
        self.least = least
        self.total = total
        self.scale = scale
        self.charges = charges
        self.table = _lean_table(merge, least)

    def leaf(self, key):
        return key, self.one

    @staticmethod
    def carry(key, value):
        return key, value

    def forget(self, atom):
        if self.charges is not None:
            charge = self.charges(atom)
            return lambda key, value, bit: (key, (value[0] + charge[bit], value[1]))
        factor = self.scale(atom)  # once: WEIGHTED's scale grows the root denominator
        if factor[0] == factor[1] == 1:
            return _keep

        def step(key, value, bit):
            value *= factor[bit]
            return (key, value) if value else None

        return step

    def join(self, key, left, right):
        return key, self.times(left, right)


def _lean_table(merge, least, wrap=None):
    def table(entries):
        out: dict = {}
        get = out.get
        for key, value in entries:
            old = get(key)
            out[key] = value if old is None else merge(old, value)
        _check_counts(out.values(), least)
        return out if wrap is None else wrap(out)

    return table


def _check_counts(values, least) -> None:
    """A table's counts, read by its kind's `least`, must be at least 1."""
    if values and least(values) < 1:
        raise ValueError("row count must be positive")


def row_values(lean: Values) -> SimpleNamespace:
    """The `Row` kind of the lean kind `lean`: entries, a `table` builder
    and a `total` as a lean kind has, on `Row`s that carry `lean`'s
    values and their derivations, merged and totalled by `lean`'s rules.
    A key's second row replaces its row, is dropped, or merges into it
    with the derivations concatenated.  A handler derives at most one row
    per key from each child row (unary nodes) or each joined pair, so no
    derivation is merged twice."""

    def leaf(key):
        return key, Row(*key, lean.one, ())

    def carry(key, row):
        return key, Row(*key, row.value, ((row,),))

    def forget(atom):
        charge = lean.forget(atom)

        def step(key, row, bit):
            entry = charge(key, row.value, bit)
            return None if entry is None else (key, Row(*key, entry[1], ((row,),)))

        return step

    def join(key, left, right):
        return key, Row(*key, lean.times(left.value, right.value), ((left, right),))

    def merge(old, new):
        value = lean.merge(old.value, new.value)
        if value is new.value:
            return new
        if value is not old.value:
            old.value = value
            old.origins += new.origins
        return old

    def least(rows):
        return lean.least(row.value for row in rows)

    def total(rows):
        return lean.total([row.value for row in rows])

    return SimpleNamespace(
        leaf=leaf, carry=carry, forget=forget, join=join, table=_lean_table(merge, least, DpTable),
        total=total, mode=lean.mode, derivations=True,
    )


def _keep(key, value, bit):
    return key, value


def _cheapest(old, new):
    """The merge rule on (cost, count) values: the cheaper value wins
    and is returned itself, since only cost-minimal values extend to
    optimal solutions, and values of equal cost add their counts."""
    if new[0] < old[0]:
        return new
    if new[0] == old[0]:
        return old[0], old[1] + new[1]
    return old


def _cost_product(left, right):
    """The (cost, count) value of a joined pair."""
    return left[0] + right[0], left[1] * right[1]


def _min_count(values):
    return min(count for _, count in values)


def _optimum(values):
    if not values:
        return (None, 0)
    best = min(cost for cost, _ in values)
    return (best, sum(count for cost, count in values if cost == best))


def lean_values(mode: Mode, costs=None, weights=None) -> Values:
    """The mode's value kind, with bare values: a count for COUNT, a
    (cost, count) pair charged by `costs` for OPTCOUNT, and for WEIGHTED
    an integer numerator.  `costs` and `weights` map an atom to its
    charges (if false, if true).  Each forgotten variable's two
    `weights` are written over their common denominator, so numerators
    multiply as integers, and the root divides once by the product of
    those denominators."""
    if mode is Mode.OPTCOUNT:

        def charges(atom):
            return costs(atom) if costs else (0, 0)

        return Values(mode, (0, 1), _cost_product, _cheapest, _min_count, _optimum, charges=charges)
    if mode is Mode.COUNT:
        return Values(mode, 1, operator.mul, operator.add, min, sum, scale=_unit)
    denominator = 1

    def scale(atom):
        nonlocal denominator
        pair = [Fraction(w) for w in weights(atom)]
        d = math.lcm(*(w.denominator for w in pair))
        denominator *= d
        return [w.numerator * (d // w.denominator) for w in pair]

    def total(values):
        return Fraction(sum(values), denominator)

    return Values(mode, 1, operator.mul, operator.add, min, total, scale=scale)


def _unit(atom):
    return 1, 1


# the entry makers of `projected_traverse`, whose entries name their
# preimage: the child row's number, or the (left, right) pair of numbers
# at a join
PROVENANCE = SimpleNamespace(
    leaf=lambda key: (key, None),
    carry=Values.carry,
    forget=lambda atom: _keep,
    join=lambda key, left, right: (key, (left, right)),
)


@dataclass
class Handlers:
    """One entry generator per node kind, each named by its `NodeKind`
    value and called with the node id, the node and the child tables;
    `values` makes their entries, and the tables of `traverse`: a lean
    kind (`Values`), a `Row` kind (`row_values`) or `PROVENANCE`.
    `check` is the keys' check state (`aspdp.CheckState`)."""

    leaf: callable
    introduce: callable
    forget: callable
    join: callable
    values: Values
    check: object


class TableStore:
    """A pass's tables by node id, with the value kind and check state
    that built them.  A lean pass keeps only the root's."""

    def __init__(self, ntd: NiceTreeDecomposition, values: Values, check):
        self.ntd = ntd
        self.values = values
        self.check = check
        self.tables: list = [None] * len(ntd.nodes)

    @property
    def root_table(self):
        return self.tables[self.ntd.root]


def _check_table(node, keys, check) -> None:
    """The check state's bound over a table's (assignment, state) keys."""
    check.bound(keys, len(node.bag))


def _post_order(ntd: NiceTreeDecomposition, tables: list, build, report, trace, keep=False):
    """The one node loop of every pass: in post-order, fill `tables[i]`,
    in place, with `build(i, node)`, which reads the child tables there,
    after checking that a join's children share its bag.  Any exception
    becomes a HandlerFailureError naming the node.  Unless `keep`, each
    child table is dropped once its parent is built; then `trace` gets
    the node's record, with the rows and largest witness set that
    `report(node, table)` gives."""
    nodes = ntd.nodes
    for i, node in enumerate(nodes):
        kids = node.children
        try:
            if node.kind is NodeKind.JOIN:
                require_same_bag(node, nodes[kids[0]].bag, nodes[kids[1]].bag)
            table = build(i, node)
        except Exception as exc:
            raise HandlerFailureError(i, node.kind.value) from exc
        tables[i] = table
        if not keep:
            for c in kids:
                tables[c] = None
        if trace is not None:
            rows, widest = report(node, table)
            record = {"node": i, "type": node.kind.value, "bag": list(node.bag), "rows": rows}
            record["max_witness_set"] = widest
            trace.write(json.dumps(record, sort_keys=True) + "\n")


def traverse(ntd: NiceTreeDecomposition, handlers: Handlers, trace=None) -> TableStore:
    """Fill a table for every node from the entries its handler yields,
    through the handlers' value kind; a lean pass keeps only the root's."""
    values, check = handlers.values, handlers.check
    store = TableStore(ntd, values, check)
    tables = store.tables

    def build(i, node):
        handler = getattr(handlers, node.kind.value)
        table = values.table(handler(i, node, *(tables[c] for c in node.children)))
        _check_table(node, table.keys(), check)
        return table

    def report(node, table):
        return len(table), _max_witness_set(table.keys())

    _post_order(ntd, tables, build, report, trace, keep=values.derivations)
    return store


def vector_traverse(ntd: NiceTreeDecomposition, plan, values: Values, trace=None):
    """The answer of a CNF's lean COUNT or WEIGHTED kind `values`, from a
    pass on dense tables, as gpusat keeps them (Fichte, Hecher, Woltran
    and Zisser, ESA 2018): a node's table is a list of 2^|bag| ints
    indexed by the bag assignment, 0 where the dict pass has no key,
    since values are never negative and a value of 0 drops its key.
    `plan` maps forget nodes to their clauses' masks (`plan_checks`).
    Answers, handler failures and `trace` records equal `traverse`'s,
    with `rows` the nonzero entries; each child table is dropped once its
    parent is built, and the root's one entry is totalled."""
    tables: list = [None] * len(ntd.nodes)

    def build(i, node):
        if node.kind is NodeKind.LEAF:
            return [1]
        child = tables[node.children[0]]
        if node.kind is NodeKind.INTRODUCE:
            return _spread(child, node.bag.index(node.vertex))
        if node.kind is NodeKind.JOIN:
            return list(map(operator.mul, child, tables[node.children[1]]))
        p = ntd.nodes[node.children[0]].bag.index(node.vertex)
        return _fold(child, p, clash_masks(plan.get(i, ())), values.scale(node.vertex))

    def report(node, table):
        return len(table) - table.count(0), 0

    _post_order(ntd, tables, build, report, trace)
    return values.total(tables[ntd.root])


def _spread(child: list, p: int) -> list:
    """The table after introducing bag position p: each block of 2^p
    entries twice, with the new position false and then true.  The loop
    runs over the blocks, or over the offsets in a block when there are
    fewer."""
    block, n = 1 << p, len(child)
    if block * block >= n:
        out: list = []
        for s in range(0, n, block):
            chunk = child[s : s + block]
            out += chunk
            out += chunk
        return out
    out = [0] * (2 * n)
    step = 2 * block
    for o in range(block):
        column = child[o::block]
        out[o::step] = column
        out[o + block :: step] = column
    return out


def _fold(child: list, p: int, clashes, factors) -> list:
    """The table after forgetting bag position p: the entries whose
    assignment A breaks a clause (A & span == pos, `clash_masks`) are
    zeroed in `child`, then each assignment's entries with the position
    false and true are scaled by `factors` and added."""
    n = len(child)
    for span, pos in clashes:
        for A in _clashing(span, pos, n):
            child[A] = 0
    times_false, times_true = (f.__mul__ if f != 1 else None for f in factors)
    block = 1 << p
    step = 2 * block

    def added(low, high):
        if times_false:
            low = map(times_false, low)
        if times_true:
            high = map(times_true, high)
        return map(operator.add, low, high)

    if block * block >= n // 2:
        out: list = []
        for s in range(0, n, step):
            out += added(child[s : s + block], child[s + block : s + step])
        return out
    out = [0] * (n // 2)
    for o in range(block):
        out[o::block] = added(child[o::step], child[o + block :: step])
    return out


def _clashing(span: int, pos: int, n: int):
    """The assignments A < n that break a clause, A & span == pos
    (`clash_masks`): pos with each subset of the free bits."""
    free = (n - 1) & ~span
    sub = free
    while True:
        yield pos | sub
        if not sub:
            return
        sub = (sub - 1) & free


def packed_traverse(ntd: NiceTreeDecomposition, plan, values: Values, trace=None):
    """The answer of a tight program's lean COUNT or OPTCOUNT kind `values`,
    from a pass on packed int keys, as gpusat keeps bit-level tables
    (Fichte, Hecher, Woltran and Zisser, ESA 2018): the key (A, M) of the
    support check state (`aspdp.SUPPORT`), a bag assignment A and a
    support mask M, is the one int A | M << width, with width the largest
    bag size plus one.  `plan` maps forget nodes to their rules' masks
    (`plan_checks`).  An introduce inserts a false bit into both fields of
    each key, and gives it once more with the new atom true; a forget
    looks up, memoised on the bits of A its due rules read, either a
    classical clash or the support the rules add, drops a true and
    unsupported atom and removes its bit from both fields; a join pairs
    keys of equal A and ORs them.  Answers, handler failures and `trace`
    records equal `traverse`'s; every table is checked against the support
    bound read off packed keys (`_PackedSupport`), and its counts must be
    at least 1.  Each child table is dropped once its parent is built, and
    the root's values are totalled."""
    nodes = ntd.nodes
    tables: list = [None] * len(nodes)
    width = max(len(node.bag) for node in nodes) + 1
    bound = _PackedSupport(width)
    merge, least, charges, times = values.merge, values.least, values.charges, values.times

    def build(i, node):
        kind, kids = node.kind, node.children
        if kind is NodeKind.LEAF:
            table = {0: values.one}
        elif kind is NodeKind.INTRODUCE:
            table = _packed_introduce(tables[kids[0]], node.bag.index(node.vertex), width)
        elif kind is NodeKind.FORGET:
            p = nodes[kids[0]].bag.index(node.vertex)
            cost = charges and charges(node.vertex)  # None outside OPTCOUNT
            table = _packed_forget(tables[kids[0]], p, width, plan.get(i, ()), cost, merge)
        else:
            table = _packed_join(tables[kids[0]], tables[kids[1]], width, times, merge)
        _check_table(node, table.keys(), bound)
        _check_counts(table.values(), least)
        return table

    def report(node, table):
        return len(table), 0

    _post_order(ntd, tables, build, report, trace)
    return values.total(list(tables[ntd.root].values()))


class _PackedSupport:
    """The bound of the support check state over packed keys A | M << width:
    at most 3^k keys over a bag of k atoms, and no mask bit outside its
    assignment (`aspdp.SUPPORT`)."""

    __slots__ = ("width",)

    def __init__(self, width: int):
        self.width = width

    def bound(self, keys, k):
        if len(keys) > 3**k:
            raise InvariantError("row bound exceeded for support tables")
        width = self.width
        for x in keys:
            if x >> width & ~x:
                raise InvariantError("support mask outside the assignment")


def _packed_introduce(child: dict, p: int, width: int) -> dict:
    """Insert a false bit at position p of both fields of each key, and
    give each key once more with the new atom true: its mask bit stays
    false, since a new atom starts unsupported.  No two keys meet."""
    keep = (1 << p) - 1
    move = ~(keep | keep << width)
    bit = 1 << p
    table: dict = {}
    for x, value in child.items():
        x += x & move  # the bits at and above p of both fields move up
        table[x] = value
        table[x | bit] = value
    return table


def _packed_forget(child: dict, p: int, width: int, due, charges, merge) -> dict:
    """Forget position p.  Per the bits of A that the due rules read,
    memoised: the support mask, in the M field, of the only true head
    atom of each due rule whose body A satisfies, or for a classical
    clash the A field's spare top bit, which no key sets and whose mask
    bit is never set.  A key with the atom or that spare bit true and
    its mask bit false is dropped; the others lose bit p of both fields,
    and OPTCOUNT values are charged the atom's `charges` (if false, if
    true).  Keys that become equal merge."""
    reads = 0
    for head, pos, neg in due:
        reads |= head | pos | neg
    spare = 1 << (width - 1)
    kill = 1 << p | spare
    keep = (1 << p) - 1
    keep |= keep << width
    high = (spare - 1) & ~((1 << p) - 1)
    high |= high << width
    if charges is not None and not any(charges):
        charges = None
    memo: dict = {}
    table: dict = {}
    get = table.get
    for x, value in child.items():
        A = x & reads
        support = memo.get(A)
        if support is None:
            support = 0
            for head, pos, neg in due:
                if pos & A == pos and not neg & A:
                    true_head = head & A
                    if not true_head:
                        support = spare  # the rule is broken classically
                        break
                    if not true_head & (true_head - 1):
                        support |= true_head << width  # its only true head atom
            memo[A] = support
        x |= support
        if x & ~(x >> width) & kill:
            continue  # a clash, or a true atom that leaves without support
        key = (x & keep) | ((x >> 1) & high)
        if charges is not None:
            value = (value[0] + charges[x >> p & 1], value[1])
        old = get(key)
        table[key] = value if old is None else merge(old, value)
    return table


def _packed_join(left: dict, right: dict, width: int, times, merge) -> dict:
    """Pair the keys of equal assignment, OR them, and merge the product
    `times` of their values."""
    assignment = (1 << width) - 1
    by_assignment: dict = {}
    for x, value in right.items():
        by_assignment.setdefault(x & assignment, []).append((x, value))
    table: dict = {}
    get = table.get
    for x, lvalue in left.items():
        for y, rvalue in by_assignment.get(x & assignment, ()):
            key = x | y
            value = times(lvalue, rvalue)
            old = get(key)
            table[key] = value if old is None else merge(old, value)
    return table


def projected_forget_below(ntd: NiceTreeDecomposition, vertices) -> list[bool]:
    """Per node, whether a forget of a vertex of `vertices` lies at or below it."""
    below: list[bool] = []
    for node in ntd.nodes:
        forgets = node.kind is NodeKind.FORGET and node.vertex in vertices
        below.append(forgets or any(below[c] for c in node.children))
    return below


def projected_traverse(ntd: NiceTreeDecomposition, handlers: Handlers, projected, trace=None):
    """The number of projections of the solutions onto the vertices
    `projected`, by one forward pass over sets of rows on any
    decomposition (Fichte, Hecher, Morak and Woltran, SAT 2018).  A
    node's row index numbers its distinct (assignment, state) rows; its
    table maps each set of rows that agree on the projected bag positions
    to the number of projections, onto the projected vertices forgotten
    below, whose compatible rows are exactly that set.  Nodes with no
    projected forget below keep only their row index (`_sets`).  `trace`
    records the number of sets (`rows`) and the largest set."""
    below = projected_forget_below(ntd, projected)
    check = handlers.check
    passes: list = [None] * len(ntd.nodes)  # (table, or None if not below; row index)

    def build(i, node):
        children = [passes[c] for c in node.children]
        entries = getattr(handlers, node.kind.value)(i, node, *(r for _, r in children))
        rows: dict = {}  # row -> number, in the order first yielded
        table = None
        if below[i]:
            table = _set_table(ntd, node, entries, rows, children, projected)
        else:
            for key, _ in entries:
                rows.setdefault(key, len(rows))
        _check_table(node, rows.keys(), check)
        return table, rows

    def report(node, pair):
        table = _sets(*pair, node.bag, projected)
        return len(table), max(map(len, table), default=0)

    _post_order(ntd, passes, build, report, trace)
    table, rows = passes[ntd.root]
    solutions = {n for (_, state), n in rows.items() if check.solution(state)}
    table = _sets(table, rows, (), projected)
    return sum(value for S, value in table.items() if not solutions.isdisjoint(S))


def _projected_mask(bag, projected) -> int:
    return sum(1 << k for k, v in enumerate(bag) if v in projected)


def _sets(table, rows: dict, bag, projected) -> dict:
    """`table`, or if None, as no projected vertex is forgotten below,
    the set of every row of each projected bag assignment, which the one
    empty projection is compatible with."""
    if table is not None:
        return table
    mask = _projected_mask(bag, projected)
    groups: dict = {}
    for (A, _), n in rows.items():
        groups.setdefault(A & mask, []).append(n)
    return dict.fromkeys(map(frozenset, groups.values()), 1)


def _set_table(ntd, node, entries, rows, children, projected) -> dict:
    """The table of sets from the child (table, row index) pairs, each
    set mapped to the image of its rows, numbering the new rows of
    `entries` in `rows`.  An introduce splits a set by the new vertex's
    truth if it is projected, a forget drops the rows the step kills, and
    a join pairs the sets of equal projected bag positions, joins their
    rows of equal assignment and multiplies.  Sets with one image add up;
    an empty image is dropped."""
    (child, child_rows), *other = [
        (_sets(t, r, ntd.nodes[c].bag, projected), r) for (t, r), c in zip(children, node.children)
    ]
    number = rows.setdefault
    if node.kind is NodeKind.INTRODUCE:
        p = node.bag.index(node.vertex)
        halves = ([None] * len(child_rows), [None] * len(child_rows))
        for key, src in entries:
            halves[key[0] >> p & 1][src] = number(key, len(rows))
        low, high = (half.__getitem__ for half in halves)
        if node.vertex in projected:
            images = ((frozenset(map(h, S)), v) for S, v in child.items() for h in (low, high))
        else:
            images = ((frozenset((*map(low, S), *map(high, S))), v) for S, v in child.items())
    elif node.kind is NodeKind.FORGET:
        image = [None] * len(child_rows)  # None: the step kills the row
        for key, src in entries:
            image[src] = number(key, len(rows))
        images = ((frozenset(map(image.__getitem__, S)) - {None}, v) for S, v in child.items())
    else:
        ((right, right_rows),) = other
        partners: list = [{} for _ in child_rows]  # left -> {right: joined}
        for key, (left, right_num) in entries:
            partners[left][right_num] = number(key, len(rows))
        mask = _projected_mask(node.bag, projected)
        left_bits, right_bits = ([A & mask for A, _ in r] for r in (child_rows, right_rows))
        by_bits: dict = {}
        for R, value in right.items():
            by_bits.setdefault(right_bits[next(iter(R))], []).append((R, value))
        images = (
            (frozenset(j for l in L for r, j in partners[l].items() if r in R), lvalue * rvalue)
            for L, lvalue in child.items()
            for R, rvalue in by_bits.get(left_bits[next(iter(L))], ())
        )
    table: dict = {}
    for S, value in images:
        if S:
            table[S] = table.get(S, 0) + value
    return table


def projected_bitset_traverse(ntd: NiceTreeDecomposition, plan, projected, trace=None) -> int:
    """The number of projections of a CNF's models onto the vertices
    `projected`: `projected_traverse`'s pass over sets of rows for the
    empty check state, whose rows carry no state, with each set of rows
    one int, so that one big-int operation works on a whole set.  A
    node's bag splits into its k_P projected and k_U unprojected
    vertices, each in bag order; a key holds in bits [0, 2^k_U) the set
    u of unprojected assignments whose row (pa, u) is in the set, and
    above them pa, the projected bag bits that all of its rows share.
    `plan` maps forget nodes to their clauses' masks (`plan_checks`).
    Answers and `trace` records equal `projected_traverse`'s, with
    `max_witness_set` the largest u, and a node that fails raises
    HandlerFailureError naming it; each child table is dropped once its
    parent is built.  No table is checked against a bound: a key's u
    ranges over the 2^k_U unprojected assignments of its one pa, so a
    set holds at most the 2^k rows that bound a table of the empty
    state."""
    tables: list = [None] * len(ntd.nodes)
    memo: dict = {}  # this pass's masks and steps that move u's blocks

    def build(i, node):
        if node.kind is NodeKind.LEAF:
            return {1: 1}
        child = tables[node.children[0]]
        if node.kind is NodeKind.JOIN:
            return _bitset_join(child, tables[node.children[1]], _unprojected(node.bag, projected))
        introduce = node.kind is NodeKind.INTRODUCE
        bag = node.bag if introduce else ntd.nodes[node.children[0]].bag
        inside = [v in projected for v in bag]
        p = bag.index(node.vertex)
        # projected or not, the index among its kind, and k_U
        place = inside[p], inside[:p].count(inside[p]), inside.count(False)
        if introduce:
            return _bitset_introduce(child, *place, memo)
        due = _split_clauses(plan.get(i), bag, inside)
        return _bitset_forget(child, *place, due, memo)

    def report(node, table):
        u_bits = (1 << (1 << _unprojected(node.bag, projected))) - 1
        return len(table), max(((key & u_bits).bit_count() for key in table), default=0)

    _post_order(ntd, tables, build, report, trace)
    # the root bag is empty and every row of the empty state is a solution
    return sum(tables[ntd.root].values())


def _unprojected(bag, projected) -> int:
    return sum(v not in projected for v in bag)


def _alternating(j: int, e: int, memo: dict) -> int:
    """The bits below 2^e whose index has bit j clear: blocks of 2^j
    ones and 2^j zeros."""
    mask = memo.get(("alternating", j, e))
    if mask is None:
        block = 1 << j
        mask, period = (1 << block) - 1, 2 * block
        while period < 1 << e:
            mask |= mask << period
            period *= 2
        memo["alternating", j, e] = mask
    return mask


def _u_steps(k: int, q: int, spread: bool, memo: dict) -> list:
    """The (shift, mask) steps that move the u blocks of 2^q bits, over
    k unprojected vertices, one block apart (`spread`, k - 1 - q steps
    from k - 1 vertices), or that merge each pair of blocks into one
    (k - q steps, k vertices to k - 1)."""
    steps = memo.get(("steps", k, q, spread))
    if steps is None:
        if spread:
            steps = [(1 << j, _alternating(j, k, memo)) for j in range(k - 2, q - 1, -1)]
        else:
            steps = [(1 << q, _alternating(q, k, memo))]
            steps += [(1 << j, _alternating(j + 1, k, memo)) for j in range(q, k - 1)]
        memo["steps", k, q, spread] = steps
    return steps


def _bitset_introduce(child: dict, inside: bool, q: int, k: int, memo: dict) -> dict:
    """Introduce a vertex at index q among the bag's projected vertices
    (`inside`) or its k unprojected ones.  A projected vertex inserts bit
    q into pa, giving two keys; an unprojected one moves the blocks of
    2^q bits of u one block apart (k - 1 - q shift-and-mask steps) and
    fills the gaps with the same sets: u's assignments with the new bit
    true."""
    table: dict = {}
    if inside:
        at = (1 << k) + q
        low, bit = (1 << at) - 1, 1 << at
        for key, value in child.items():
            key = (key >> at << (at + 1)) | (key & low)
            table[key] = table[key | bit] = value
        return table
    width = 1 << (k - 1)  # the child's u bits
    full, block = (1 << width) - 1, 1 << q
    steps = _u_steps(k, q, True, memo)
    for key, value in child.items():
        u = key & full
        for shift, mask in steps:
            u = (u | u << shift) & mask
        table[(key >> width << (2 * width)) | u | u << block] = value
    return table


def _split_clauses(due, bag, inside: list) -> list:
    """Per clause mask (`plan_checks`) in `due` over the child bag, whose
    positions are projected where `inside` says so: its projected (span,
    pos) (`clash_masks`) and the set of unprojected assignments that
    clash, as a u."""
    if not due:
        return []
    clauses = clash_masks(due)
    if True not in inside:  # every clause is all unprojected
        width = 1 << len(bag)
        return [(0, 0, _clash_set(span, pos, width)) for span, pos in clauses]
    places, count = [], [0, 0]  # per bag position: (projected, its bit)
    for flag in inside:
        places.append((flag, 1 << count[flag]))
        count[flag] += 1
    width = 1 << count[False]
    due = []
    for span, pos in clauses:
        parts = [0, 0, 0, 0]  # unprojected and projected span, then pos
        while span:
            low = span & -span
            flag, bit = places[low.bit_length() - 1]
            parts[flag] |= bit
            if pos & low:
                parts[2 + flag] |= bit
            span ^= low
        span_u, span_p, pos_u, pos_p = parts
        due.append((span_p, pos_p, _clash_set(span_u, pos_u, width)))
    return due


def _clash_set(span: int, pos: int, n: int) -> int:
    """The int with bit A set for each assignment A < n that clashes,
    A & span == pos."""
    digits = bytearray(b"0") * n
    for A in _clashing(span, pos, n):
        digits[n - 1 - A] = 49  # "1"
    return int(digits, 2)


def _bitset_forget(child: dict, inside: bool, q: int, k: int, due: list, memo: dict) -> dict:
    """Forget a vertex at index q among the child bag's projected vertices
    (`inside`) or its k unprojected ones.  Each u loses the assignments
    that break a `due` clause (`_split_clauses`) whose projected part
    matches its pa, memoised per pa, and an empty u drops its key.  A
    projected vertex leaves pa; for an unprojected one each pair of u
    blocks of 2^q bits merges into one (the inverse steps of
    `_bitset_introduce`).  Keys that become equal add."""
    width = 1 << k
    full = (1 << width) - 1
    steps = None if inside else _u_steps(k, q, False, memo)
    low = (1 << q) - 1
    allowed: dict = {}
    table: dict = {}
    get = table.get
    for key, value in child.items():
        pa, u = key >> width, key & full
        if due:
            ok = allowed.get(pa)
            if ok is None:
                bad = 0
                for span, pos, clash in due:
                    if pa & span == pos:
                        bad |= clash
                ok = allowed[pa] = full ^ bad
            u &= ok
            if not u:
                continue
        if steps is None:
            key = ((pa >> (q + 1) << q) | (pa & low)) << width | u
        else:
            for shift, mask in steps:
                u = (u | u >> shift) & mask
            key = pa << (width >> 1) | u
        table[key] = get(key, 0) + value
    return table


def _bitset_join(left: dict, right: dict, k: int) -> dict:
    """Pair the keys of equal pa over a bag of k unprojected vertices and
    add the product of their values to the intersection of their sets of
    rows, when it is not empty."""
    width = 1 << k
    full = (1 << width) - 1
    by_pa: dict = {}
    for key, value in right.items():
        by_pa.setdefault(key >> width, []).append((key, value))
    table: dict = {}
    get = table.get
    for key, lvalue in left.items():
        for other, rvalue in by_pa.get(key >> width, ()):
            both = key & other
            if both & full:
                table[both] = get(both, 0) + lvalue * rvalue
    return table


def solution_rows(store: TableStore) -> list[Row]:
    """The root rows whose state describes solutions."""
    return [r for r in store.root_table if store.check.solution(r.state)]


def purge(store: TableStore) -> TableStore:
    """Drop every row not reachable from a root solution row along
    derivations.  Root aggregates are unchanged by construction."""
    ntd = store.ntd
    marked: list[set[int]] = [set() for _ in ntd.nodes]
    root = ntd.root
    for row in solution_rows(store):
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
    out = TableStore(ntd, store.values, store.check)
    for i, table in enumerate(store.tables):
        out.tables[i] = DpTable({k: r for k, r in table.items() if id(r) in marked[i]})
    return out


def root_aggregate(store: TableStore, mode: Mode):
    """The mode's answer from the root table's solution keys.  The store
    must have been built for `mode`, since another kind's total would be
    a wrong answer."""
    ntd = store.ntd
    if ntd.nodes[ntd.root].bag != ():
        raise InvariantError("root bag must be empty")
    sols = [v for (_, state), v in store.root_table.items() if store.check.solution(state)]
    if store.values.mode is not mode:
        raise InvariantError(f"a {store.values.mode.value} store cannot answer {mode.value}")
    return store.values.total(sols)


def empty_answer(mode: Mode):
    """The mode's answer when no key describes a solution."""
    return lean_values(mode).total([])


def plan_checks(ntd: NiceTreeDecomposition, rules: list[Rule]) -> dict[int, list[tuple]]:
    """Map each forget node to the (head, body_pos, body_neg) bitmasks,
    over its child's sorted bag, of the rules (program rules or clause
    constraints) checked there: each rule once, at the forget node of its
    earliest-forgotten atom, whose child bag holds all of the rule's atoms
    (checked here).  An assignment A violates (head, pos, neg) when
    pos & A == pos, neg & A == 0 and head & A == 0.  An atomless rule is
    always violated and has no forget node, so it raises ValueError:
    callers answer such instances first."""
    nodes, forget_node_of = ntd.nodes, ntd.forget_node_of
    bits: dict[int, dict[int, int]] = {}  # per forget node: child bag atom -> bit
    plan: dict[int, list[tuple]] = {}
    for idx, rule in enumerate(rules):
        atoms = rule.atoms
        if not atoms:
            raise ValueError(f"constraint {idx} has no atoms and is always violated")
        node_id = min(map(forget_node_of.__getitem__, atoms))
        bit_of = bits.get(node_id)
        if bit_of is None:
            child_bag = nodes[nodes[node_id].children[0]].bag
            bit_of = bits[node_id] = {a: 1 << k for k, a in enumerate(child_bag)}
        bit = bit_of.__getitem__
        head, pos, neg = rule.head, rule.body_pos, rule.body_neg
        try:
            masks = sum(map(bit, head)), sum(map(bit, pos)), sum(map(bit, neg))
        except KeyError:
            raise InvariantError("constraint atoms must share the child bag") from None
        plan.setdefault(node_id, []).append(masks)
    return plan


def clash_masks(due: list[tuple[int, int, int]]) -> list[tuple[int, int]]:
    """(span, pos) per constraint mask (head, pos, neg) that some
    assignment violates: A violates it exactly when A & span == pos,
    with span = head | pos | neg, unless pos meets head or neg and
    nothing violates it."""
    return [(head | pos | neg, pos) for head, pos, neg in due if not (head | neg) & pos]


def require_same_bag(node, left_bag, right_bag) -> None:
    if left_bag != right_bag or tuple(left_bag) != node.bag:
        raise BagMismatchError(
            f"join bags differ: {left_bag} vs {right_bag} at bag {node.bag}"
        )
