"""Every metric of every workload, with one command.

    python3 perfbench/report.py [--seed N] [--write]

Runs each workload twice in fresh interpreters (--trace 0 for the
end-to-end metrics, --trace 1 for the per-layer ones), prints every
metric by name with its unit once all answers have been checked, and
compares each layer's share of the traced time with the share predicted
when the benchmark was defined.  --write records the result, with the
Python version, git revision and processor count, in
perfbench/results.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# share of the traced layer time each layer was predicted to take, as
# (low, high); a layer not listed was predicted to take no time at all
PREDICTED = {
    "cnf-banded": {
        "parse": (0, 0.01),
        "graph": (0, 0.01),
        "order": (0.70, 0.90),
        "bags": (0, 0.02),
        "nice": (0, 0.02),
        "dp": (0.10, 0.20),
    },
    "asp-grid": {
        "parse": (0, 0.01),
        "graph": (0, 0.01),
        "order": (0, 0.01),
        "bags": (0, 0.02),
        "nice": (0, 0.02),
        "dp": (0.92, 1.0),
    },
    "enum-proj": {
        "parse": (0, 0.01),
        "graph": (0, 0.01),
        "order": (0, 1.0),
        "bags": (0, 0.02),
        "nice": (0, 0.02),
        "dp": (0, 1.0),
        "purge": (1e-9, 1.0),
        "enum": (1e-9, 1.0),
        "proj": (1e-9, 1.0),
    },
}
LARGEST = {"cnf-banded": "order", "asp-grid": "dp"}


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True, cwd=ROOT,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def git_revision() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT
        )
    except OSError:
        return "unknown"
    return out.stdout.strip() or "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description="run every workload and print every metric")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--write", action="store_true", help="record perfbench/results.json")
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    from spans import LAYERS
    from workloads import WORKLOADS

    results = {}
    all_correct = True
    for w in bench["workloads"]:
        name = w["name"]
        plain, traced = run(name, args.seed, seconds, 0), run(name, args.seed, seconds, 1)
        all_correct &= plain["correct"] and traced["correct"]
        metrics = {**plain["metrics"], **traced["metrics"]}
        layer_total = sum(metrics[f"{layer}.s"]["value"] for layer in LAYERS)
        shares = {layer: metrics[f"{layer}.s"]["value"] / layer_total for layer in LAYERS}
        holds = {}
        for layer in LAYERS:
            lo, hi = PREDICTED[name].get(layer, (0, 0))
            holds[layer] = lo <= shares[layer] <= hi
        if name in LARGEST:
            holds["largest:" + LARGEST[name]] = max(shares, key=shares.get) == LARGEST[name]
        cycle = WORKLOADS[name].cycle(args.seed, 0)
        results[name] = {
            "why": WORKLOADS[name].why,
            "cycle": [f"{inst.command} {inst.label}" for inst in cycle],
            "correct": plain["correct"] and traced["correct"],
            "attempted": {"plain": plain["attempted"], "traced": traced["attempted"]},
            "failed": {"plain": plain["failed"], "traced": traced["failed"]},
            "metrics": {k: [v["value"], v["unit"]] for k, v in metrics.items()},
            "layer_share": {k: round(v, 4) for k, v in shares.items()},
            "predicted_share": {k: list(PREDICTED[name].get(k, (0, 0))) for k in LAYERS},
            "prediction_holds": holds,
        }
        print(f"== {name} (attempted {plain['attempted']}/{traced['attempted']}, "
              f"failed {plain['failed']}/{traced['failed']}, correct {results[name]['correct']})")
        for metric, (value, unit) in results[name]["metrics"].items():
            print(f"  {metric:20s} {value:14.6g} {unit}")
        for layer in LAYERS:
            lo, hi = PREDICTED[name].get(layer, (0, 0))
            verdict = "holds" if holds[layer] else "DOES NOT HOLD"
            predicted = f"{100 * lo:g}-{100 * hi:g} %"
            share = f"{100 * shares[layer]:6.2f} %"
            print(f"  share {layer:6s} {share}  predicted {predicted}  {verdict}")
        for key, ok in holds.items():
            if key.startswith("largest:"):
                print(f"  {key.split(':')[1]} is the largest layer: {ok}")
    if args.write:
        record = {
            "seed": args.seed,
            "run_seconds": seconds,
            "git_revision": git_revision(),
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "machine": platform.machine(),
            "workloads": results,
        }
        (HERE / "results.json").write_text(json.dumps(record, indent=1) + "\n")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
