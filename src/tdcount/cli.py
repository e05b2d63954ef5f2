"""Command-line entry point.

Exit codes: 0 success, 1 parse or usage problems or an --oracle-check
mismatch (any command, `td-stats` included), 2 unsupported rule types,
brute-force size guards, an instance too deep for the recursive
projection pass of `pcount`/`pmc`, or running out of memory (also inside
the table pass); `solve` exits 10 when consistent and 20 when
inconsistent.  Each error is one `error:` line on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import aspdp, oracle, satdp
from .errors import (
    HandlerFailureError,
    ParseError,
    ProjectionOutOfRangeError,
    TooLargeError,
    UnsupportedRuleError,
)
from .graphs import instance_graph
from .model import CnfFormula, GroundProgram
from .parsers import parse_dimacs, parse_ground_program, parse_smodels
from .projection import projected_count, projection_vertices
from .treedecomp import decompose, lowest_width, seeded_decompositions, validate_td

PROGRAM_COMMANDS = {"count", "solve", "enumerate", "optcount", "pcount"}
CNF_COMMANDS = {"mc", "wmc", "pmc"}

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_UNSUPPORTED = 2
EXIT_CONSISTENT = 10
EXIT_INCONSISTENT = 20
EXIT_MISMATCH = 1


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="tdcount", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "count": "count answer sets",
        "solve": "decide consistency (exit 10/20)",
        "enumerate": "list answer sets",
        "optcount": "optimal cost and number of optimal answer sets",
        "pcount": "projected answer-set count",
        "mc": "count CNF models",
        "wmc": "weighted CNF model count",
        "pmc": "projected CNF model count",
        "td-stats": "decomposition width statistics",
    }
    for name, help_text in commands.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("path", help="input file, or - for stdin")
        p.add_argument("--graph", choices=["primal", "incidence"], default="primal")
        p.add_argument("--heuristic", choices=["min-fill", "min-degree"], default="min-fill")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument(
            "--seeds",
            type=int,
            default=5 if name == "td-stats" else 1,
            help="number of consecutive seeds to try",
        )
        p.add_argument("--format", choices=["asp", "smodels", "dimacs", "auto"], default="auto")
        p.add_argument("--json", action="store_true")
        p.add_argument("--trace", metavar="FILE", help="line-delimited JSON per-node trace")
        p.add_argument("--oracle-check", action="store_true")
        if name == "pcount":
            p.add_argument("--project", default="", help="comma-separated atom names")
        if name == "pmc":
            p.add_argument("--project-vars", default="", help="comma-separated variables")
        if name == "enumerate":
            p.add_argument("--limit", type=int, default=None)
    return parser


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _sniff_format(path: str, text: str) -> str:
    lowered = path.lower()
    for ext, fmt in (
        (".lp", "asp"),
        (".asp", "asp"),
        (".cnf", "dimacs"),
        (".dimacs", "dimacs"),
        (".wcnf", "dimacs"),
        (".sm", "smodels"),
        (".smodels", "smodels"),
        (".lparse", "smodels"),
    ):
        if lowered.endswith(ext):
            return fmt
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "p" or parts[0] == "w" or (parts[0] == "c" and "." not in line):
            return "dimacs"
        if all(p.lstrip("-").isdigit() for p in parts):
            return "smodels"
        return "asp"
    return "asp"


def _parse_instance(args, text: str):
    fmt = args.format
    if fmt == "auto":
        fmt = _sniff_format(args.path, text)
    if fmt == "asp":
        return parse_ground_program(text)
    if fmt == "smodels":
        return parse_smodels(text)
    return parse_dimacs(text)


def _csv_items(raw: str) -> list[str]:
    return [item.strip() for item in raw.split(",") if item.strip()]


def _project_atoms(program: GroundProgram, raw: str) -> set[int]:
    by_name = {a.name: a.id for a in program.atoms if a.name is not None}
    out = set()
    for name in _csv_items(raw):
        if name not in by_name:
            raise ProjectionOutOfRangeError(f"unknown atom {name!r}")
        out.add(by_name[name])
    return out


def _project_vars(formula: CnfFormula, raw: str) -> set[int]:
    out = set()
    for item in _csv_items(raw):
        try:
            v = int(item)
        except ValueError:
            raise _UsageError(f"bad variable {item!r}") from None
        if not 1 <= v <= formula.num_vars:
            raise ProjectionOutOfRangeError(f"variable {v} out of range")
        out.add(v)
    return out


def _td_stats(args, instance) -> tuple[dict, int]:
    """Width statistics, and exit 1 if --oracle-check finds a bad decomposition."""
    graph = instance_graph(instance, args.graph)
    tried = []
    code = EXIT_OK
    for s, w, td in seeded_decompositions(
        graph, args.heuristic, args.resolved_seed, args.seeds
    ):
        if args.oracle_check:
            violation = validate_td(graph, td)
            if violation is not None:
                print(f"oracle-check: mismatch seed={s} {violation}", file=sys.stderr)
                code = EXIT_MISMATCH
        tried.append((s, w))
    best_seed, best_width = lowest_width(tried)
    if args.oracle_check and code == EXIT_OK:
        print(f"oracle-check: ok ({len(tried)} decompositions)", file=sys.stderr)
    return {
        "graph": args.graph,
        "widths": [{"seed": s, "width": w} for s, w in tried],
        "best_seed": best_seed,
        "best_width": best_width,
    }, code


def _run_command(args, instance, trace):
    """Returns (result-for-json, text-lines, width, seed, exit-code)."""
    cmd = args.command

    if cmd == "td-stats":
        stats, code = _td_stats(args, instance)
        lines = [f"seed={w['seed']} width={w['width']}" for w in stats["widths"]]
        lines.append(f"best seed={stats['best_seed']} width={stats['best_width']}")
        return stats, lines, stats["best_width"], stats["best_seed"], code

    proj = None
    if cmd == "pcount":
        proj = _project_atoms(instance, args.project)
    elif cmd == "pmc":
        proj = _project_vars(instance, args.project_vars)
    defer = () if proj is None else projection_vertices(instance, proj)
    decomp = decompose(
        instance_graph(instance), args.heuristic, args.resolved_seed, args.seeds, defer=defer
    )
    opts = {"decomp": decomp, "trace": trace}
    code = EXIT_OK
    check = None  # under --oracle-check: (agrees, dp value shown, oracle value shown)

    if cmd == "count":
        result = aspdp.count_answer_sets(instance, **opts)
        lines = [str(result)]
        if args.oracle_check:
            expected = len(oracle.brute_answer_sets(instance))
            check = (result == expected, result, expected)

    elif cmd == "solve":
        consistent = aspdp.is_consistent(instance, **opts)
        if args.oracle_check:
            expected = bool(oracle.brute_answer_sets(instance))
            check = (consistent == expected, consistent, expected)
        text = "CONSISTENT" if consistent else "INCONSISTENT"
        result, lines = text.lower(), [text]
        code = EXIT_CONSISTENT if consistent else EXIT_INCONSISTENT

    elif cmd == "enumerate":
        names = instance.atom_names()
        sets = list(aspdp.enumerate_answer_sets(instance, limit=args.limit, **opts))
        if args.oracle_check and args.limit is None:
            expected = sorted(oracle.brute_answer_sets(instance), key=sorted)
            check = (sets == expected, len(sets), len(expected))
        result = [[names[a] for a in sorted(s)] for s in sets]
        lines = [" ".join(row) for row in result]

    elif cmd == "optcount":
        cost, count = aspdp.count_optimal(instance, **opts)
        if args.oracle_check:
            answer_sets = oracle.brute_answer_sets(instance)
            if not answer_sets:
                expected = (None, 0)
            else:
                minimize = instance.minimize
                costs = [minimize.cost_of(s) if minimize else 0 for s in answer_sets]
                best = min(costs)
                expected = (best, costs.count(best))
            check = ((cost, count) == expected, (cost, count), expected)
        result = {"cost": cost, "count": count}
        lines = ["INCONSISTENT"] if cost is None else [f"{cost} {count}"]

    elif cmd in ("pcount", "pmc"):
        try:
            result = projected_count(instance, proj, **opts)
        except RecursionError:
            raise TooLargeError("instance too deep for the projection pass") from None
        lines = [str(result)]
        if args.oracle_check:
            expected = oracle.brute_projected_count(instance, proj)
            check = (result == expected, result, expected)

    elif cmd in ("mc", "wmc"):
        weighted = cmd == "wmc"
        value = (satdp.weighted_count if weighted else satdp.count_models)(instance, **opts)
        # JSON gives a weight as its string, a count as a number
        result, lines = str(value) if weighted else value, [str(value)]
        if args.oracle_check:
            brute = oracle.brute_weighted_count if weighted else oracle.brute_count_models
            expected = brute(instance)
            check = (value == expected, value, expected)

    else:
        raise _UsageError(f"unknown command {cmd!r}")

    if check is not None:
        agrees, dp_value, oracle_value = check
        if agrees:
            print(f"oracle-check: ok ({oracle_value})", file=sys.stderr)
        else:
            print(
                f"oracle-check: mismatch dp={dp_value} oracle={oracle_value}",
                file=sys.stderr,
            )
            code = EXIT_MISMATCH
    return result, lines, decomp.width, decomp.seed, code


def run(argv=None) -> int:
    parser = _build_parser()
    started = time.monotonic()
    trace = None
    try:
        args = parser.parse_args(argv)
        if args.command in PROGRAM_COMMANDS and args.graph == "incidence":
            raise _UsageError("--graph incidence is only available for td-stats")
        if args.seeds < 1:
            raise _UsageError("--seeds must be positive")
        if args.seed is not None:
            args.resolved_seed = args.seed
        else:
            args.resolved_seed = int(os.environ.get("TDCOUNT_SEED", "0"))
        text = _read_input(args.path)
        instance = _parse_instance(args, text)
        if args.command in PROGRAM_COMMANDS and not isinstance(instance, GroundProgram):
            raise _UsageError(f"{args.command} expects a ground program")
        if args.command in CNF_COMMANDS and not isinstance(instance, CnfFormula):
            raise _UsageError(f"{args.command} expects a DIMACS formula")
        if args.trace:
            trace = open(args.trace, "w", encoding="utf-8")
        result, lines, width, seed, code = _run_command(args, instance, trace)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (UnsupportedRuleError, TooLargeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except (ParseError, ProjectionOutOfRangeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except HandlerFailureError as exc:
        if not isinstance(exc.__cause__, MemoryError):
            raise
        print(f"error: out of memory ({exc})", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_UNSUPPORTED
    finally:
        if trace is not None:
            trace.close()
    elapsed_ms = int((time.monotonic() - started) * 1000)
    if args.json:
        payload = {
            "result": result,
            "width": width,
            "heuristic": args.heuristic,
            "seed": seed,
            "elapsed_ms": elapsed_ms,
        }
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in lines:
            print(line)
    return code


def main() -> None:
    sys.exit(run(argv=None))
