"""The traced pipeline: the layer calls `tdcount.cli._run_command` makes
for one instance, made one by one from here with a span around each.

Spans are kept in memory as [name, start, end, parent, instance] and
written out when the run ends.  Each table is counted in a `counters`
span nested inside the span of the layer whose public call frees the
table in the CLI, and is dropped there, so that layer pays for freeing
it as under `cli.run`; a layer's time is its span's self time.
`enumerate_answer_sets` runs its own table pass and purge, so while it
runs the two module functions it calls are wrapped to record them as
child spans; enumeration time is the `enum` span's self time.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from fractions import Fraction

from tdcount import aspdp, satdp
from tdcount.dpcore import Mode, purge, root_aggregate
from tdcount.graphs import primal_graph, primal_graph_cnf
from tdcount.parsers import parse_dimacs, parse_ground_program
from tdcount.projection import ProjectionPass
from tdcount.treedecomp import (
    DecompResult,
    NodeKind,
    elimination_ordering,
    make_nice,
    td_from_ordering,
)

HEURISTIC = "min-fill"  # the CLI default
TD_SEED = 0  # tdcount's decomposition seed, also passed to cli.run

LAYERS = ("parse", "graph", "order", "bags", "nice", "dp", "purge", "enum", "proj")
COUNTERS = (
    "parse.bytes",
    "graph.edges",
    "td.width_max",
    "nice.nodes",
    "nice.join_nodes",
    "dp.rows",
    "dp.rows_max",
    "dp.witness_max",
    "purge.rows_in",
    "purge.rows_kept",
    "enum.answers",
    "proj.ipmc_entries",
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.instance = None
        self._open: list[int] = []

    @contextmanager
    def span(self, name):
        parent = self._open[-1] if self._open else None
        record = [name, 0.0, None, parent, self.instance]
        self._open.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter()
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._open.pop()


@contextmanager
def _enumeration_hooks(tracer, totals):
    build, prune = aspdp.build_store, aspdp.purge

    def traced_build(*args, **kwargs):
        with tracer.span("dp"):
            out = build(*args, **kwargs)
            with tracer.span("counters"):
                count_store(out[0], totals)
        return out

    def traced_purge(store):
        with tracer.span("purge"):
            out = prune(store)
            with tracer.span("counters"):
                count_purge(store, out, totals)
        return out

    aspdp.build_store, aspdp.purge = traced_build, traced_purge
    try:
        yield
    finally:
        aspdp.build_store, aspdp.purge = build, prune


def _option(inst, flag):
    return inst.options[inst.options.index(flag) + 1]


def _projected_vertices(inst, parsed) -> set[int]:
    """Graph vertices of the projection, as the CLI derives them."""
    if inst.command == "pcount":
        by_name = {a.name: a.id for a in parsed.atoms}
        return {by_name[name] for name in _option(inst, "--project").split(",")}
    return {int(v) - 1 for v in _option(inst, "--project-vars").split(",")}


def run_traced(tracer: Tracer, inst, path, totals: dict) -> list[str]:
    """Solve one instance layer by layer and return the lines the CLI
    would print.  The parse, graph and decomposition objects are held
    until the last `counters` span has read them, and are dropped inside
    the instance span, as `cli.run` drops them before it returns."""
    held = {}
    with tracer.span("instance"):
        try:
            return _layers(tracer, inst, path, held, totals)
        finally:
            with tracer.span("counters"):
                count_structure(path, held, totals)
            held.clear()


def _layers(tracer: Tracer, inst, path, held: dict, totals: dict) -> list[str]:
    cmd = inst.command
    cnf = inst.suffix == ".cnf"
    with tracer.span("parse"):
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        parsed = parse_dimacs(text) if cnf else parse_ground_program(text)
    held["parsed"] = parsed
    with tracer.span("graph"):
        graph = primal_graph_cnf(parsed) if cnf else primal_graph(parsed)
        if cmd in ("pcount", "pmc"):
            # projection.projected_count builds the primal graph once more
            # before it sees that a decomposition was given
            primal_graph_cnf(parsed) if cnf else primal_graph(parsed)
    held["graph"] = graph
    defer = _projected_vertices(inst, parsed) if cmd in ("pcount", "pmc") else ()
    with tracer.span("order"):
        order = elimination_ordering(graph, HEURISTIC, TD_SEED, defer)
    with tracer.span("bags"):
        td = td_from_ordering(graph, order)
    with tracer.span("nice"):
        ntd = make_nice(td)
    held["td"], held["ntd"] = td, ntd
    decomp = DecompResult(ntd, td, td.width(), TD_SEED, HEURISTIC)

    if cmd in ("mc", "wmc"):
        weighted = cmd == "wmc"
        if parsed.has_empty_clause():
            return [str(Fraction(0) if weighted else 0)]
        # satdp.count_models / weighted_count free the store on return
        with tracer.span("dp"):
            store, _ = satdp.build_store(parsed, weighted=weighted, decomp=decomp)
            value = root_aggregate(store, Mode.WEIGHTED if weighted else Mode.COUNT)
            with tracer.span("counters"):
                count_store(store, totals)
            del store
        return [str(value)]

    if cmd in ("count", "optcount"):
        mode = Mode.COUNT if cmd == "count" else Mode.OPTCOUNT
        if parsed.is_trivially_inconsistent():
            value = 0 if cmd == "count" else (None, 0)
        else:
            with tracer.span("dp"):
                store, _ = aspdp.build_store(parsed, mode, decomp=decomp)
                value = root_aggregate(store, mode)
                with tracer.span("counters"):
                    count_store(store, totals)
                del store
        if cmd == "count":
            return [str(value)]
        cost, count = value
        return ["INCONSISTENT"] if cost is None else [f"{cost} {count}"]

    if cmd == "enumerate":
        limit = int(_option(inst, "--limit"))
        with tracer.span("enum"), _enumeration_hooks(tracer, totals):
            answers = list(aspdp.enumerate_answer_sets(parsed, limit=limit, decomp=decomp))
        totals["enum.answers"] += len(answers)
        names = parsed.atom_names()
        return [" ".join(names[a] for a in sorted(s)) for s in answers]

    # pcount / pmc, as projection.projected_count runs them
    if parsed.has_empty_clause() if cmd == "pmc" else parsed.is_trivially_inconsistent():
        return ["0"]
    with tracer.span("dp"):
        if cmd == "pmc":
            store, _ = satdp.build_store(parsed, weighted=False, decomp=decomp)
        else:
            store, _ = aspdp.build_store(parsed, Mode.COUNT, decomp=decomp)
        with tracer.span("counters"):
            count_store(store, totals)
    with tracer.span("purge"):
        purged = purge(store)
        with tracer.span("counters"):
            count_purge(store, purged, totals)
    # projected_count frees all three when it returns, after root_value
    with tracer.span("proj"):
        pass_ = ProjectionPass(purged, defer)
        value = pass_.root_value()
        with tracer.span("counters"):
            totals["proj.ipmc_entries"] += sum(len(t) for t in pass_.tables)
        del store, purged, pass_
    return [str(value)]


def count_structure(path, held: dict, totals: dict) -> None:
    """Fold one instance's input and decomposition counters into the
    run totals."""
    totals["parse.bytes"] += os.path.getsize(path)
    if "graph" in held:
        totals["graph.edges"] += held["graph"].num_edges
    if "ntd" in held:
        totals["td.width_max"] = max(totals["td.width_max"], held["td"].width())
        nodes = held["ntd"].nodes
        totals["nice.nodes"] += len(nodes)
        totals["nice.join_nodes"] += sum(node.kind is NodeKind.JOIN for node in nodes)


def count_store(store, totals: dict) -> None:
    tables = [t for t in store.tables if t is not None]
    sizes = [len(t) for t in tables]
    totals["dp.rows"] += sum(sizes)
    totals["dp.rows_max"] = max(totals["dp.rows_max"], max(sizes, default=0))
    witness = max((t.max_witness_set() for t in tables), default=0)
    totals["dp.witness_max"] = max(totals["dp.witness_max"], witness)


def count_purge(before, after, totals: dict) -> None:
    totals["purge.rows_in"] += sum(len(t) for t in before.tables)
    totals["purge.rows_kept"] += sum(len(t) for t in after.tables)


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent is not None:
            own[parent] -= end - start
    return own
