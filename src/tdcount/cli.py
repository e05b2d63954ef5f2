"""Command-line entry point.

Exit codes: 0 success, 1 parse or usage problems or an --oracle-check
mismatch (any command, `td-stats` and `enumerate --limit` included), 2
unsupported rule types, brute-force size guards or running out of
memory (also inside the table pass); `solve` exits 10 when consistent
and 20 when inconsistent.  Each error is one `error:` line on stderr.
`pcount --project` names atoms as `enumerate` prints them.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from typing import Callable, NamedTuple

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
from .projection import projected_count
from .treedecomp import decompose, lowest_width, seeded_decompositions, validate_td

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


def _read_input(path: str) -> str:
    """The input's text, decoded strictly as UTF-8.  Stdin is read as
    bytes when it has a byte layer, since its text layer may let bad
    bytes through (UTF-8 mode decodes with surrogateescape)."""
    try:
        if path == "-":
            raw = getattr(sys.stdin, "buffer", None)
            return sys.stdin.read() if raw is None else raw.read().decode("utf-8")
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        name = "stdin" if path == "-" else path
        raise _UsageError(f"{name} is not UTF-8 text (byte {exc.start})") from None


PARSERS = {"asp": parse_ground_program, "smodels": parse_smodels, "dimacs": parse_dimacs}
EXTENSIONS = {
    "asp": (".lp", ".asp"),
    "dimacs": (".cnf", ".dimacs", ".wcnf"),
    "smodels": (".sm", ".smodels", ".lparse"),
}


def _sniff_format(path: str, text: str) -> str:
    for fmt, extensions in EXTENSIONS.items():
        if path.lower().endswith(extensions):
            return fmt
    # a DIMACS header cannot be an ASP rule; a `c` line may be either
    for raw in text.splitlines():
        parts = raw.split()
        if parts[:2] == ["p", "cnf"]:
            return "dimacs"
        if not parts or parts[0] == "c":
            continue
        if all(p.lstrip("-").isdigit() for p in parts):
            return "smodels"
        return "asp"
    return "asp"


def _csv_items(raw: str) -> list[str]:
    return [item.strip() for item in raw.split(",") if item.strip()]


def _project_atoms(program: GroundProgram, raw: str) -> set[int]:
    """The atoms `raw` names, named as `enumerate` prints them (`x0`,
    `x1`, ... for atoms without a name)."""
    by_name = {name: a for a, name in enumerate(program.atom_names())}
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


def _verdict(program, consistent: bool):
    text = "CONSISTENT" if consistent else "INCONSISTENT"
    return text.lower(), [text], EXIT_CONSISTENT if consistent else EXIT_INCONSISTENT


def _answer_sets(program, sets):
    names = program.atom_names()
    rows = [[names[a] for a in sorted(s)] for s in sets]
    return rows, [" ".join(row) for row in rows], EXIT_OK


def _optimum(program, optimum):
    cost, count = optimum
    lines = ["INCONSISTENT"] if cost is None else [f"{cost} {count}"]
    return {"cost": cost, "count": count}, lines, EXIT_OK


def _run_command(command, args, instance, trace):
    """Decompose, answer, and under --oracle-check compare with the
    oracle, showing a list of answer sets by its length.  Returns
    (result-for-json, text-lines, width, seed, exit-code)."""
    keywords = command.keywords(instance, args)
    decomp = decompose(instance_graph(instance), args.heuristic, args.resolved_seed, args.seeds)
    value = command.answer(instance, decomp=decomp, trace=trace, **keywords)
    result, lines, code = command.output(instance, value)
    if args.oracle_check:
        expected = command.oracle(instance, **keywords)
        shown = [len(v) if isinstance(v, list) else v for v in (value, expected)]
        if value == expected:
            print(f"oracle-check: ok ({shown[1]})", file=sys.stderr)
        else:
            print(f"oracle-check: mismatch dp={shown[0]} oracle={shown[1]}", file=sys.stderr)
            code = EXIT_MISMATCH
    return result, lines, decomp.width, decomp.seed, code


def _td_stats(command, args, instance, trace):
    """Width statistics per seed; --oracle-check validates each seed's
    decomposition and exits 1 if one fails."""
    graph = instance_graph(instance, args.graph)
    tried = []
    code = EXIT_OK
    for s, w, td in seeded_decompositions(graph, args.heuristic, args.resolved_seed, args.seeds):
        violation = validate_td(graph, td) if args.oracle_check else None
        if violation is not None:
            print(f"oracle-check: mismatch seed={s} {violation}", file=sys.stderr)
            code = EXIT_MISMATCH
        tried.append((s, w))
    best_seed, best_width = lowest_width(tried)
    if args.oracle_check and code == EXIT_OK:
        print(f"oracle-check: ok ({len(tried)} decompositions)", file=sys.stderr)
    stats = {
        "graph": args.graph,
        "widths": [{"seed": s, "width": w} for s, w in tried],
        "best_seed": best_seed,
        "best_width": best_width,
    }
    lines = [f"seed={s} width={w}" for s, w in tried]
    lines.append(f"best seed={best_seed} width={best_width}")
    return stats, lines, best_width, best_seed, code


class Command(NamedTuple):
    """One subcommand: what the parser, the input check and the run read."""

    help: str
    reads: type | None  # GroundProgram, CnfFormula, or None for either
    answer: Callable | None = None  # (instance, decomp=, trace=, **keywords): the table pass
    oracle: Callable | None = None  # (instance, **keywords) by brute force; reads oracle.* then
    # (instance, answer) -> (--json result, text lines, exit code)
    output: Callable = lambda instance, value: (value, [str(value)], EXIT_OK)
    flag: tuple[str, dict] | None = None  # its own option: (name, add_argument options)
    keywords: Callable = lambda instance, args: {}  # what answer and oracle take from `flag`
    run: Callable = _run_command  # the whole command; td-stats has its own
    seeds: int = 1  # default of --seeds


COMMANDS = {
    "count": Command(
        "count answer sets", GroundProgram, aspdp.count_answer_sets,
        lambda program: len(oracle.brute_answer_sets(program)),
    ),
    "solve": Command(
        "decide consistency (exit 10/20)", GroundProgram, aspdp.is_consistent,
        lambda program: bool(oracle.brute_answer_sets(program)), _verdict,
    ),
    "enumerate": Command(
        "list answer sets", GroundProgram,
        lambda program, **options: list(aspdp.enumerate_answer_sets(program, **options)),
        # the oracle's first answer sets in the same order, sorted by sorted atom tuple
        lambda program, limit: sorted(oracle.brute_answer_sets(program), key=sorted)[:limit],
        _answer_sets, ("--limit", {"type": int, "default": None}),
        lambda program, args: {"limit": args.limit},
    ),
    "optcount": Command(
        "optimal cost and number of optimal answer sets", GroundProgram, aspdp.count_optimal,
        lambda program: oracle.brute_optimum(program), _optimum,
    ),
    "pcount": Command(
        "projected answer-set count", GroundProgram, projected_count,
        lambda program, projection: oracle.brute_projected_count(program, projection),
        flag=("--project", {"default": "", "help": "comma-separated atom names"}),
        keywords=lambda program, args: {"projection": _project_atoms(program, args.project)},
    ),
    "mc": Command(
        "count CNF models", CnfFormula, satdp.count_models,
        lambda formula: oracle.brute_count_models(formula),
    ),
    "wmc": Command(
        "weighted CNF model count", CnfFormula, satdp.weighted_count,
        lambda formula: oracle.brute_weighted_count(formula),
        # JSON gives a weight as its string, a count as a number
        lambda formula, weight: (str(weight), [str(weight)], EXIT_OK),
    ),
    "pmc": Command(
        "projected CNF model count", CnfFormula, projected_count,
        lambda formula, projection: oracle.brute_projected_count(formula, projection),
        flag=("--project-vars", {"default": "", "help": "comma-separated variables"}),
        keywords=lambda formula, args: {"projection": _project_vars(formula, args.project_vars)},
    ),
    "td-stats": Command(
        "decomposition width statistics", None, run=_td_stats, seeds=5,
        flag=("--graph", {"choices": ["primal", "incidence"], "default": "primal"}),
    ),
}

EXPECTS = {GroundProgram: "a ground program", CnfFormula: "a DIMACS formula"}


@functools.cache  # one parser per process: building it costs milliseconds
def _build_parser() -> _Parser:
    parser = _Parser(prog="tdcount", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("path", help="input file, or - for stdin")
        p.add_argument("--heuristic", choices=["min-fill", "min-degree"], default="min-fill")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument(
            "--seeds", type=int, default=command.seeds, help="number of consecutive seeds to try"
        )
        p.add_argument("--format", choices=[*PARSERS, "auto"], default="auto")
        p.add_argument("--json", action="store_true")
        if command.answer is not None:  # a table pass to trace
            p.add_argument("--trace", metavar="FILE", help="line-delimited JSON per-node trace")
        p.add_argument("--oracle-check", action="store_true")
        if command.flag is not None:
            flag, options = command.flag
            p.add_argument(flag, **options)
    return parser


def run(argv=None) -> int:
    limit = sys.get_int_max_str_digits()  # lifted for this run: counts are arbitrary-precision
    sys.set_int_max_str_digits(0)
    try:
        return _run(argv)
    finally:
        sys.set_int_max_str_digits(limit)


def _run(argv) -> int:
    parser = _build_parser()
    started = time.monotonic()
    trace = error = failed_at = None
    try:
        args = parser.parse_args(argv)
        command = COMMANDS[args.command]
        if args.seeds < 1:
            raise _UsageError("--seeds must be positive")
        if getattr(args, "limit", None) is not None and args.limit < 1:
            raise _UsageError("--limit must be positive")
        raw_seed = os.environ.get("TDCOUNT_SEED", "0") if args.seed is None else args.seed
        try:
            args.resolved_seed = int(raw_seed)
        except ValueError:
            raise _UsageError(f"TDCOUNT_SEED must be an integer, not {raw_seed!r}") from None
        text = _read_input(args.path)
        fmt = _sniff_format(args.path, text) if args.format == "auto" else args.format
        instance = PARSERS[fmt](text)
        if command.reads is not None and not isinstance(instance, command.reads):
            raise _UsageError(f"{args.command} expects {EXPECTS[command.reads]}")
        if getattr(args, "trace", None):
            trace = open(args.trace, "w", encoding="utf-8")
        result, lines, width, seed, code = command.run(command, args, instance, trace)
    except (UnsupportedRuleError, TooLargeError) as exc:
        code, error = EXIT_UNSUPPORTED, str(exc)
    except (_UsageError, ParseError, ProjectionOutOfRangeError, OSError) as exc:
        code, error = EXIT_INPUT, str(exc)
    except HandlerFailureError as exc:
        if not isinstance(exc.__cause__, MemoryError):
            raise
        code, error, failed_at = EXIT_UNSUPPORTED, "out of memory", str(exc)
    except MemoryError:
        code, error = EXIT_UNSUPPORTED, "out of memory"
    finally:
        if trace is not None:
            trace.close()
    # the arms above only record the error: by now the exception and the
    # frames holding the tables are gone, so there is memory to report it
    if error is not None:
        if failed_at is not None:
            error = f"{error} ({failed_at})"
        print(f"error: {error}", file=sys.stderr)
        return code
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
