"""Per-layer times of one benchmark workload, best of N interleaved rounds.

    python3 tools/layers.py --workload cnf-banded --seed 1 --cycles 2 \
        --rounds 7 [--tree DIR --tree DIR2 ...]

The instances are cycles 0 .. --cycles - 1 of the workload of
`perfbench/workloads.py` with workload seed --seed.  Each instance is
solved layer by layer through tdcount's public API, as `tdcount.cli`
runs a command with the default options: parse, primal graph, min-fill
ordering with its bags (decomposition seed 0), nice form, and the
command's table pass.  Every layer is timed with `perf_counter`.

Each --tree (default: this checkout) is a source tree with
`src/tdcount`.  A round runs every instance once in a fresh interpreter
per tree, and the trees take turns going first, so a slow spell of a
shared machine falls on both.  An instance's layer time is its least
over the rounds, and a layer's time is the sum over the instances.
The table prints one row per tree and layer in milliseconds.
Standard library only.
"""

from __future__ import annotations

import argparse
import gc
import json
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LAYERS = ("parse", "graph", "order+bags", "nice", "table")
TD_SEED = 0  # the decomposition seed `perfbench/run.py` passes to `cli.run`

WORKER = (
    "import json, sys\n"
    "sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
    "import layers\n"
    "print(json.dumps(layers.one_round(sys.argv[3], int(sys.argv[4]), int(sys.argv[5]))))\n"
)


def instances(workload: str, seed: int, cycles: int) -> list:
    """The workload's instances of cycles 0 .. cycles - 1, in run order."""
    if str(ROOT / "perfbench") not in sys.path:
        sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS

    return [inst for k in range(cycles) for inst in WORKLOADS[workload].cycle(seed, k)]


def _projection(inst, parsed) -> set[int]:
    """The projection `cli` reads from the instance's option: atom ids
    of a program by name, or 1-based CNF variables."""
    raw = inst.options[1].split(",")
    if inst.suffix == ".cnf":
        return {int(v) for v in raw}
    by_name = {name: a for a, name in enumerate(parsed.atom_names())}
    return {by_name[name] for name in raw}


def solve_layers(inst) -> tuple[dict[str, float], object]:
    """Solve one instance layer by layer: (seconds per layer, answer).
    An exception in the table pass is the answer, by its type name."""
    from tdcount import (
        count_answer_sets,
        count_models,
        count_optimal,
        enumerate_answer_sets,
        make_nice,
        parse_dimacs,
        parse_ground_program,
        primal_graph,
        projected_count,
        weighted_count,
    )
    from tdcount.treedecomp import DecompResult, seeded_decompositions

    passes = {
        "mc": count_models,
        "wmc": weighted_count,
        "count": count_answer_sets,
        "optcount": count_optimal,
        "enumerate": lambda parsed, **kw: list(
            enumerate_answer_sets(parsed, limit=int(inst.options[1]), **kw)),
        "pcount": lambda parsed, **kw: projected_count(parsed, _projection(inst, parsed), **kw),
        "pmc": lambda parsed, **kw: projected_count(parsed, _projection(inst, parsed), **kw),
    }
    parse = parse_dimacs if inst.suffix == ".cnf" else parse_ground_program
    times = {}
    gc.collect()
    start = time.perf_counter()
    parsed = parse(inst.text)
    times["parse"] = (mark := time.perf_counter()) - start
    graph = primal_graph(parsed)
    times["graph"] = (start := time.perf_counter()) - mark
    _, width, td = next(seeded_decompositions(graph, "min-fill", TD_SEED, 1))
    times["order+bags"] = (mark := time.perf_counter()) - start
    ntd = make_nice(td)
    times["nice"] = (start := time.perf_counter()) - mark
    try:
        answer = passes[inst.command](
            parsed, decomp=DecompResult(ntd, td, width, TD_SEED, "min-fill"))
    except Exception as exc:  # a failing instance is timed and reported, not fatal
        answer = type(exc).__name__
    times["table"] = time.perf_counter() - start
    return times, answer


def one_round(workload: str, seed: int, cycles: int) -> list[dict[str, float]]:
    """Layer times of every instance, solved once each."""
    return [solve_layers(inst)[0] for inst in instances(workload, seed, cycles)]


def _round_in(tree: Path, workload: str, seed: int, cycles: int) -> list[dict[str, float]]:
    done = subprocess.run(
        [sys.executable, "-c", WORKER, str(tree / "src"), str(ROOT / "tools"),
         workload, str(seed), str(cycles)],
        capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout)


def best_of(rounds: list[list[dict[str, float]]]) -> dict[str, float]:
    """Per layer, the sum over instances of each instance's least time."""
    return {
        layer: sum(min(r[i][layer] for r in rounds) for i in range(len(rounds[0])))
        for layer in LAYERS
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--cycles", type=int, default=2)
    parser.add_argument("--rounds", type=int, default=7)
    parser.add_argument("--tree", type=Path, action="append",
                        help="source tree to time (repeatable; default: this checkout)")
    args = parser.parse_args(argv)
    trees = args.tree or [ROOT]
    rounds: dict[Path, list] = {tree: [] for tree in trees}
    for r in range(args.rounds):
        for tree in trees if r % 2 == 0 else trees[::-1]:
            rounds[tree].append(_round_in(tree, args.workload, args.seed, args.cycles))
    print(f"{args.workload} seed {args.seed}, cycles 0-{args.cycles - 1}, "
          f"best of {args.rounds} rounds, ms summed over the instances")
    print("tree".ljust(40) + "".join(layer.rjust(12) for layer in LAYERS) + "total".rjust(12))
    for tree, got in rounds.items():
        best = best_of(got)
        cells = [best[layer] for layer in LAYERS] + [sum(best.values())]
        print(str(tree)[-40:].ljust(40) + "".join(f"{1000 * s:12.1f}" for s in cells))
    return 0


if __name__ == "__main__":
    sys.exit(main())
