"""Answer-set counting, optimization and enumeration over nice tree
decompositions of the primal graph.

Each row pairs a candidate bag assignment with a state whose kind
(`CheckState`) is chosen once per instance (`check_state`); the kind
also says which root keys describe solutions and bounds every table:

- A tight program (no positive dependency cycle) has as answer sets
  exactly its supported models (Fages 1994; for disjunctive heads,
  Ben-Eliyahu and Dechter 1994): every true atom is the only true head
  atom of some rule whose body holds.  Its rows carry a support mask
  over the bag.  A new atom starts unsupported; a forget node marks the
  only true head atom of each due rule whose body holds, then drops the
  row if the forgotten atom is true and unsupported; a join ORs masks.
  Every rule that mentions an atom is checked at or below the atom's
  forget node, so its support is complete when it is forgotten.
- Any other program's rows carry two witness sets (w0, w1), each a
  bitset over the bag's 2^k assignments.  Bit B of w0 is a witness B, a
  sub-interpretation that still satisfies every checked rule of the
  reduct, and bit B of w1 the witness B once strict, properly smaller
  than the candidate on some decided atom.  The steps move whole sets
  by the block moves of the projected bitset pass (`dpcore._u_steps`).
  A root row describes answer sets exactly when w1 is empty.
- A CNF's rows carry the empty state (`EMPTY`), which no step changes.

Minimize costs, both signs, are charged when their atom is forgotten.

One planner (`dpcore.plan_checks`), one handler set (`make_handlers`),
one `build_store` and one `answer` serve programs and CNFs alike: a
CNF's `rules` are its clauses as constraints.  `answer`, behind every
count, decision, optimum and weight, makes the mode's value kind
(`mode_values`) and passes lean tables of its bare values; `build_store`,
for enumeration, passes `Row` tables that carry the same values plus
their derivations.  `table_pass` routes each pass:

- a projected count runs over sets of rows, with the entries of
  `PROVENANCE` (`dpcore.projected_traverse`), or for a CNF, whose keys
  all keep `EMPTY`, on bitsets over the unprojected bag assignments
  (`dpcore.projected_bitset_traverse`);
- a CNF's lean COUNT and WEIGHTED kinds run on dense vectors over the
  bag assignments (`dpcore.vector_traverse`);
- a tight program's lean COUNT and OPTCOUNT kinds, behind its count,
  consistency and optimum, run the steps of `SUPPORT` on keys packed
  into one int, assignment and support mask side by side
  (`dpcore.packed_traverse`);
- every other pass runs the handlers (`dpcore.traverse`).

The routes give the same answers and traces.  A lean pass returns the
answer itself, a `Row` pass its store.
"""

from __future__ import annotations

import heapq
from functools import reduce
from operator import or_
from typing import Callable, NamedTuple

from .dpcore import (
    Handlers,
    Mode,
    TableStore,
    Values,
    _clash_set,
    _u_steps,
    clash_masks,
    empty_answer,
    lean_values,
    packed_traverse,
    plan_checks,
    projected_bitset_traverse,
    projected_traverse,
    purge,
    root_aggregate,
    row_values,
    solution_rows,
    traverse,
    vector_traverse,
)
from .errors import InvariantError
from .graphs import instance_graph, vertex_count
from .model import CnfFormula, GroundProgram, has_atomless_rule
from .treedecomp import DecompResult, NiceTreeDecomposition, NodeKind, decompose


class CheckState(NamedTuple):
    """How rows check stability: the leaf's state and one state step per
    node kind, None where states never change (`EMPTY`).  Made once per
    node, `introduce(k, p)` gives the step `state -> (s_false, s_true)`
    of a bag of k atoms whose new position p is set false and true, and
    `forget(due, k, p)` the step `(state, A) -> state | None` of a child
    bag of k atoms losing position p, for a candidate A that satisfies
    the masks `due` of the rules checked there, None when the state rules
    A out; `join(left, right)` combines the states of two rows of one
    assignment.  `solution(state)` tells whether a root key with this
    state describes solutions; `bound(keys, k)` raises InvariantError
    when a table's keys over a bag of k atoms break the kind's bound."""

    start: object
    introduce: Callable | None
    forget: Callable | None
    join: Callable | None
    solution: Callable
    bound: Callable


def _always(state):
    return True


def _empty_bound(keys, k):
    if len(keys) > 1 << k:
        raise InvariantError("row bound exceeded for witness-free tables")


# CNF: models need no stability check, so every key keeps the empty
# state and a table has at most one key per assignment
EMPTY = CheckState(frozenset(), None, None, None, _always, _empty_bound)


def _support_introduce(k, p):
    low = (1 << p) - 1

    def step(mask):
        mask += mask & ~low  # the bits at and above p move up
        return mask, mask

    return step


def _support_forget(due, k, p):
    bit, low = 1 << p, (1 << p) - 1

    def step(mask, A):
        for head, pos, neg in due:
            if pos & A == pos and neg & A == 0:
                true_head = head & A
                if not true_head & (true_head - 1):
                    mask |= true_head  # the rule's only true head atom
        if A & bit and not mask & bit:
            return None  # a true atom leaves without support
        return (mask & low) | (mask >> 1 & ~low)

    return step


def _support_bound(keys, k):
    # a support mask lies inside its assignment: at most 3^k keys
    if len(keys) > 3**k:
        raise InvariantError("row bound exceeded for support tables")
    for assignment, mask in keys:
        if mask & ~assignment:
            raise InvariantError("support mask outside the assignment")


# tight programs: the support mask holds the bag atoms that are the
# only true head atom of some checked rule whose body holds.  Every true
# atom was supported when it was forgotten, so every root key is a
# solution
SUPPORT = CheckState(0, _support_introduce, _support_forget, int.__or__, _always, _support_bound)


def _witness_introduce(k, p):
    steps = _u_steps(k, p, True, {})
    block = 1 << p

    def step(state):
        w0, w1 = state
        for shift, mask in steps:  # every witness gets bit p false
            w0 = (w0 | w0 << shift) & mask
            w1 = (w1 | w1 << shift) & mask
        # candidate sets the atom false: witnesses stay below it; sets it
        # true: each witness forks, and choosing false makes it strict
        return (w0, w1), (w0 << block, w1 << block | w0 | w1)

    return step


def _witness_forget(due, k, p):
    # a due rule of the reduct breaks the witnesses that hold its positive
    # body and leave its head false, none if the two meet.  Per candidate
    # A, memoised: the witnesses broken by a rule the reduct w.r.t. A keeps
    rules = [(neg, _clash_set(head | pos, pos, 1 << k)) for head, pos, neg in due if not head & pos]
    steps = _u_steps(k, p, False, {})
    memo: dict[int, int] = {}

    def step(state, A):
        broken = memo.get(A)
        if broken is None:
            broken = memo[A] = reduce(or_, (clash for neg, clash in rules if not neg & A), 0)
        w0, w1 = state[0] & ~broken, state[1] & ~broken
        for shift, mask in steps:  # each witness drops bit p
            w0 = (w0 | w0 >> shift) & mask
            w1 = (w1 | w1 >> shift) & mask
        return w0, w1

    return step


def _witness_join(left, right):
    (l0, l1), (r0, r1) = left, right
    return l0 & r0, l1 & (r0 | r1) | (l0 | l1) & r1


def _witness_bound(keys, k):
    for assignment, (w0, w1) in keys:
        if (w0 | w1) >> (1 << k):
            raise InvariantError("witness-set bound exceeded")
        # the non-strict self-witness must survive every step
        if not w0 >> assignment & 1:
            raise InvariantError("self-witness lost")


# other programs: the witness sets (w0, w1), strict ones in w1, as the
# module docstring says.  A root key describes answer sets when w1 is empty
WITNESS = CheckState(
    (1, 0), _witness_introduce, _witness_forget, _witness_join, lambda state: not state[1],
    _witness_bound,
)


def check_state(instance: GroundProgram | CnfFormula) -> CheckState:
    """The check state of the instance's rows: support masks for a
    tight program, whose answer sets are its supported models, witness
    sets for any other program, and the empty state for a CNF, whose
    models need no stability check."""
    if isinstance(instance, CnfFormula):
        return EMPTY
    return SUPPORT if instance.is_tight() else WITNESS


def make_handlers(
    ntd: NiceTreeDecomposition,
    plan: dict[int, list[tuple]],
    *,
    check: CheckState = WITNESS,
    values: Values,
) -> Handlers:
    """The one handler set, for programs and CNFs alike.  Each handler
    yields its node's table entries, made by the value kind `values`
    from a key and the child values; `dpcore.traverse` builds the table.

    `plan` maps forget nodes to the masks of the rules checked there
    (`dpcore.plan_checks`), and `check` gives each key's check state and
    its steps; with `EMPTY` every key keeps the empty state and only the
    rules are checked.  `values` is one mode's kind
    (`dpcore.lean_values`), whose lean tables hold bare values, or that
    kind wrapped by `dpcore.row_values`, whose tables hold `Row`s with
    their derivations, or `dpcore.PROVENANCE`, whose entries name their
    preimage for the pass over sets of rows.  The kind charges an atom's
    cost and weight when the atom is forgotten, which happens exactly
    once, so joins combine them without correction, and it drops entries
    whose weight becomes 0, which contribute nothing."""

    def leaf(node_id, node):
        yield values.leaf((0, check.start))

    def introduce(node_id, node, child):
        p = node.bag.index(node.vertex)
        low, bit = (1 << p) - 1, 1 << p
        carry = values.carry
        split = check.introduce and check.introduce(len(node.bag), p)
        for (A, state), value in child.items():
            s_false, s_true = split(state) if split else (state, state)
            A = (A >> p << (p + 1)) | (A & low)  # the new position set false
            yield carry((A, s_false), value)
            yield carry((A | bit, s_true), value)

    def forget(node_id, node, child):
        a = node.vertex
        p = ntd.nodes[node.children[0]].bag.index(a)
        low = (1 << p) - 1
        due = plan.get(node_id, ())
        clashes = clash_masks(due)
        step = check.forget and check.forget(due, len(node.bag) + 1, p)
        charge = values.forget(a)
        for (A, state), value in child.items():
            for span, pos in clashes:
                if A & span == pos:
                    break  # the candidate violates a due rule classically
            else:
                if step:
                    state = step(state, A)
                    if state is None:
                        continue
                entry = charge(((A >> (p + 1) << p) | (A & low), state), value, A >> p & 1)
                if entry is not None:
                    yield entry

    def join(node_id, node, left, right):
        by_assignment: dict[int, list] = {}
        for (A, state), value in right.items():
            by_assignment.setdefault(A, []).append((state, value))
        product = values.join
        combine = check.join
        for (A, state), lvalue in left.items():
            for rstate, rvalue in by_assignment.get(A, ()):
                joined = combine(state, rstate) if combine else state
                yield product((A, joined), lvalue, rvalue)

    return Handlers(leaf, introduce, forget, join, values, check)


def mode_values(instance: GroundProgram | CnfFormula, mode: Mode) -> Values:
    """The mode's lean value kind for the instance: OPTCOUNT charges a
    program's minimize costs and WEIGHTED a CNF's literal weights."""
    program = isinstance(instance, GroundProgram)
    minimize = instance.minimize if program and mode is Mode.OPTCOUNT else None
    return lean_values(
        mode,
        costs=minimize.charges if minimize else None,
        weights=instance.charges if mode is Mode.WEIGHTED else None,
    )


def table_pass(
    instance: GroundProgram | CnfFormula,
    values: Values,
    heuristic: str = "min-fill",
    seed: int = 0,
    seeds: int = 1,
    trace=None,
    decomp: DecompResult | None = None,
    projected=None,
) -> tuple[object, DecompResult]:
    """Run the table pass of the value kind `values` with the instance's
    check state, by the route the module docstring lists: with
    `projected` graph vertices and `PROVENANCE`, the pass over sets of
    rows, which gives the projected count; with a lean kind, the dense or
    packed pass where one applies, else the handlers on lean tables, each
    of which gives the kind's answer; with a `Row` kind
    (`dpcore.row_values`), the handlers on `Row` tables, which give the
    store.  A given `decomp` must forget exactly the instance's vertices,
    else ValueError."""
    if decomp is None:
        decomp = decompose(instance_graph(instance), heuristic, seed, seeds)
    if set(decomp.ntd.forget_node_of) != set(range(vertex_count(instance))):
        raise ValueError("the decomposition must forget exactly the instance's vertices")
    ntd = decomp.ntd
    plan = plan_checks(ntd, instance.rules)
    check = check_state(instance)
    if projected is not None:
        if check is EMPTY:
            return projected_bitset_traverse(ntd, plan, projected, trace), decomp
        handlers = make_handlers(ntd, plan, check=check, values=values)
        return projected_traverse(ntd, handlers, projected, trace), decomp
    if not values.derivations:
        if check is EMPTY and values.scale is not None:
            return vector_traverse(ntd, plan, values, trace), decomp
        # the packed pass ignores `scale`, so a WEIGHTED kind takes the handlers
        if check is SUPPORT and values.mode in (Mode.COUNT, Mode.OPTCOUNT):
            return packed_traverse(ntd, plan, values, trace), decomp
    store = traverse(ntd, make_handlers(ntd, plan, check=check, values=values), trace)
    return (store if values.derivations else root_aggregate(store, values.mode)), decomp


def build_store(
    instance: GroundProgram | CnfFormula, mode: Mode = Mode.COUNT, **options
) -> tuple[TableStore, DecompResult]:
    """The `Row` store of every node, with derivations, for the callers
    that read more than the root aggregate; caller picks the aggregate.
    Options: heuristic, seed, seeds, trace, decomp."""
    return table_pass(instance, row_values(mode_values(instance, mode)), **options)


def answer(instance: GroundProgram | CnfFormula, mode: Mode, **options):
    """The mode's answer for a program or CNF, as `table_pass` gives it
    from a lean pass that keeps no derivations and drops each child
    table once its parent is built.  An atomless rule (`:- .`, an empty
    clause) is never satisfied: then no table is built."""
    if has_atomless_rule(instance):
        return empty_answer(mode)
    return table_pass(instance, mode_values(instance, mode), **options)[0]


def count_answer_sets(program: GroundProgram, **options) -> int:
    return answer(program, Mode.COUNT, **options)


def is_consistent(program: GroundProgram, **options) -> bool:
    return bool(answer(program, Mode.COUNT, **options))


def count_optimal(program: GroundProgram, **options) -> tuple[int | None, int]:
    """(cost of an optimal answer set, number of optimal answer sets);
    (None, 0) when inconsistent.  A missing minimize statement behaves
    as an empty one."""
    return answer(program, Mode.OPTCOUNT, **options)


def _tuple_order(n: int):
    """The key that sorts sets of atoms below n, as ints with atom a at
    bit n-1-a, as their sorted atom tuples sort: by the complement up to
    the largest atom, whose bit is `low`, then by that atom; the empty
    set first."""
    full = (1 << n) - 1

    def key(R):
        low = R & -R
        return (full ^ R) & -low, -(low or 1 << n)

    return key


def _materialize(store: TableStore, n: int, limit: int | None) -> list[int]:
    """The first `limit` (all when None) of the root's answer sets as
    ints, by `_tuple_order`.  Each purged row's list of sets is built
    from its derivations' child lists, node by node in the stored
    post-order, dropping a child's lists once its parent is built; join
    rows recombine only the row pairs that actually joined.  Lists are
    concatenated, not deduplicated: a partial answer set P (the true
    atoms at or below the node) fixes its row's key, the assignment being
    P on the bag and each check-state step a function of it and the
    forgotten atoms, so child rows hold disjoint lists; and at a join P
    fixes both halves, whose subtrees share only bag atoms.  The count
    check thus guards only this function's bookkeeping."""
    ntd = store.ntd
    sets: list[dict[int, list[int]] | None] = [None] * len(ntd.nodes)
    for i, node in enumerate(ntd.nodes):
        built: dict[int, list[int]] = {}
        for row in store.tables[i]:
            if node.kind is NodeKind.LEAF:
                result = [0]
            elif node.kind is NodeKind.INTRODUCE:
                result = sets[node.children[0]][id(row.origins[0][0])]
                if row.assignment >> node.bag.index(node.vertex) & 1:
                    result = [s | 1 << (n - 1 - node.vertex) for s in result]
            elif node.kind is NodeKind.FORGET:
                child = sets[node.children[0]]
                result = [s for (ref,) in row.origins for s in child[id(ref)]]
            else:
                left, right = (sets[c] for c in node.children)
                pairs = ((left[id(lrow)], right[id(rrow)]) for lrow, rrow in row.origins)
                result = [s1 | s2 for ls, rs in pairs for s1 in ls for s2 in rs]
            if len(result) != row.value:
                raise InvariantError("materialized sets must match the count")
            built[id(row)] = result
        sets[i] = built
        for c in node.children:
            sets[c] = None
    # the root bag is empty, so its one solution key holds every answer set
    sols = solution_rows(store)
    if len(sols) > 1:
        raise InvariantError("an empty root bag has at most one solution row")
    out = sets[ntd.root][id(sols[0])] if sols else []
    key = _tuple_order(n)
    return sorted(out, key=key) if limit is None else heapq.nsmallest(limit, out, key=key)


def enumerate_answer_sets(program: GroundProgram, limit: int | None = None, **options):
    """Yield answer sets as frozensets of atom ids, sorted by their
    sorted atom tuples, stopping after `limit` when given."""
    if limit is not None and limit <= 0:
        return
    if has_atomless_rule(program):
        return
    store, _ = build_store(program, Mode.COUNT, **options)
    n = program.num_atoms
    for R in _materialize(purge(store), n, limit):
        yield frozenset(a for a, bit in enumerate(f"{R:0{n}b}") if bit == "1")
