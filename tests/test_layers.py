"""tools/layers.py: its per-layer answers, its best-of summary, and one
run through a fresh interpreter."""

import random
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))
sys.path.insert(0, str(ROOT / "perfbench"))

import instances  # noqa: E402
import layers  # noqa: E402
import references  # noqa: E402


def _small_instances():
    rng = random.Random("layers")
    yield from (instances.cnf_instance(rng, 30, command) for command in ("mc", "wmc"))
    yield instances.cnf_instance(rng, 30, "pmc", 5)
    yield from (instances.grid_instance(rng, 3, 5, command) for command in ("count", "optcount"))
    yield instances.grid_instance(rng, 3, 5, "pcount", 5)


def test_each_layer_is_timed_and_the_table_pass_gives_the_answer():
    for inst in _small_instances():
        times, answer = layers.solve_layers(inst)
        assert list(times) == list(layers.LAYERS)
        assert all(t >= 0 for t in times.values())
        shown = f"{answer[0]} {answer[1]}" if inst.command == "optcount" else str(answer)
        assert [shown] == references.expected_lines(inst), inst.label
    chain = instances.chain_instance(random.Random("layers"), 12)
    _, answer = layers.solve_layers(chain)
    assert len(answer) == len(references.expected_lines(chain))


def test_best_of_sums_each_instance_least_time():
    rounds = [
        [dict.fromkeys(layers.LAYERS, 3.0), dict.fromkeys(layers.LAYERS, 1.0)],
        [dict.fromkeys(layers.LAYERS, 2.0), dict.fromkeys(layers.LAYERS, 4.0)],
    ]
    assert layers.best_of(rounds) == dict.fromkeys(layers.LAYERS, 3.0)


def test_one_round_in_a_fresh_interpreter(capsys):
    assert layers.main(["--workload", "cnf-banded", "--cycles", "1", "--rounds", "1"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("cnf-banded seed 1, cycles 0-0, best of 1 rounds")
    assert out[1].split()[1:] == [*layers.LAYERS, "total"]
    cells = out[2].split()[1:]
    assert len(cells) == len(layers.LAYERS) + 1
    assert float(cells[-1]) == pytest.approx(sum(map(float, cells[:-1])), abs=0.3)
