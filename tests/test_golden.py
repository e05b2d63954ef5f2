"""Golden digests of the CLI's `--trace` records and `--json` output.

Each case runs one command on one corpus instance and keeps two digests
(`pcount` projects a program onto every second of its atoms, `pmc` a CNF
onto fixed variables: every second of a corpus CNF's, every third of a
banded CNF's; an `enumerate` case with `--limit k` is keyed
`enumerate --limit k:<instance>`):
`json` hashes the JSON payload (its `elapsed_ms` removed) and the exit
code, `trace` hashes the trace file.  The digests in
`golden_digests.json` pin the table pass's observable behaviour: row
counts and witness-set sizes per node (`trace`), widths, seeds and
answers (`json`).  A change to the tables alone moves only `trace`
halves.  Regenerate them only for a deliberate behaviour change, with
`python tests/test_golden.py > tests/golden_digests.json`.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from tdcount import cli
from tdcount.model import render_program
from tdcount.parsers import parse_ground_program

import corpus
from test_projection import banded_program

DIGESTS = Path(__file__).with_name("golden_digests.json")
PROGRAM_COMMANDS = ("count", "optcount", "solve", "pcount", "enumerate")
LIMITS = ([], ["--limit", "1"])
# banded programs with 108-420 answer sets; (1, 16) and (1, 20) are not tight
BANDED_PROGRAMS = ((1, 16), (2, 18), (1, 20), (0, 24))
CNF_COMMANDS = ("mc", "wmc", "pmc")


def _program_seeds():
    """The first 12 corpus seeds whose program has a minimize statement
    and the first 8 whose program has none."""
    with_min, without = [], []
    seed = 0
    while len(with_min) < 12 or len(without) < 8:
        program = corpus.random_program(seed, max_atoms=10, max_rules=15)
        bucket = with_min if program.minimize is not None else without
        if len(bucket) < (12 if bucket is with_min else 8):
            bucket.append(seed)
        seed += 1
    return sorted(with_min + without)


def _cnf_case(name, formula, step):
    """A CNF case; `pmc` projects onto every `step`-th variable from 1."""
    project = ",".join(str(v) for v in range(1, formula.num_vars + 1, step))
    extra = {"pmc": ["--project-vars", project]}
    commands = [(command, extra.get(command, [])) for command in CNF_COMMANDS]
    return name, ".cnf", corpus.dimacs_text(formula), commands


def instances():
    """(name, file suffix, text, [(command, extra arguments)]) for every
    golden instance."""
    out = []
    for seed in _program_seeds():
        text = render_program(corpus.random_program(seed, max_atoms=10, max_rules=15))
        # the names of the atoms the text mentions, as the CLI reads them
        project = ",".join(parse_ground_program(text).atom_names()[::2])
        extra = {"pcount": ["--project", project]}
        commands = [(command, extra.get(command, [])) for command in PROGRAM_COMMANDS]
        out.append((f"program-{seed}", ".lp", text, commands))
    # projections that several answer sets share: a tight program whose
    # supports differ between the answer sets of one projection, and
    # linked positive loops, which are not tight
    loops = "".join(
        f"a{i} :- b{i}. b{i} :- a{i}. a{i} :- not c{i}. c{i} :- not a{i}.\n"
        f"d{i} :- c{i}, not a{i + 1}.\n"
        for i in range(4)
    )
    supports = "b :- c. b :- not e. c :- not d. d :- not c. e :- not f. f :- not e.\n"
    for name, text, project in (
        ("supports", supports, "b,e,f"),
        ("loops", loops + "a4.\n", "b0,d0,d1,d2,d3"),
    ):
        enumerates = [("enumerate", limit) for limit in LIMITS]
        out.append((name, ".lp", text, [("pcount", ["--project", project]), *enumerates]))
    for seed, n in BANDED_PROGRAMS:
        text = render_program(banded_program(seed, n))
        enumerates = [("enumerate", limit) for limit in (*LIMITS, ["--limit", "7"])]
        out.append((f"banded-program-{seed}-{n}", ".lp", text, enumerates))
    for seed in range(17):
        formula = corpus.random_cnf(seed, max_vars=15, max_clauses=25, weighted=True)
        out.append(_cnf_case(f"cnf-{seed}", formula, 2))
    for seed in (1, 2, 3):
        out.append(_cnf_case(f"banded-{seed}", corpus.banded_cnf(seed, 40), 3))
    return out


def digest(command: str, suffix: str, text: str, extra=()) -> dict[str, str]:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"instance{suffix}"
        path.write_text(text)
        trace = Path(tmp) / "trace.jsonl"
        out = io.StringIO()
        argv = [command, str(path), *extra, "--json", "--trace", str(trace)]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.run(argv)
        payload = json.loads(out.getvalue())
        payload.pop("elapsed_ms")
        answer = hashlib.sha256(json.dumps(payload, sort_keys=True).encode())
        answer.update(b"\0" + str(code).encode())
        return {
            "json": answer.hexdigest(),
            "trace": hashlib.sha256(trace.read_bytes()).hexdigest(),
        }


def _key(command, name, extra):
    """`command:name`, naming an `enumerate --limit` too."""
    label = " ".join([command, *extra]) if command == "enumerate" else command
    return f"{label}:{name}"


def all_digests() -> dict[str, dict[str, str]]:
    return {
        _key(command, name, extra): digest(command, suffix, text, extra)
        for name, suffix, text, commands in instances()
        for command, extra in commands
    }


def test_trace_and_json_match_golden_digests():
    expected = json.loads(DIGESTS.read_text())
    actual = all_digests()
    assert len(actual) == 178
    assert sorted(actual) == sorted(expected)
    differing = [
        f"{key} {half}"
        for key in sorted(actual)
        for half in ("json", "trace")
        if actual[key][half] != expected[key][half]
    ]
    assert differing == []


if __name__ == "__main__":
    json.dump(all_digests(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
