"""Checks over the package source itself."""

import ast
import re
from pathlib import Path

import tdcount
from tdcount import cli
from tdcount.dpcore import PROVENANCE

PACKAGE = Path(tdcount.__file__).parent
REPO = Path(__file__).resolve().parents[1]


def test_package_has_no_assert_statements():
    # `python -O` strips assert statements, so an invariant that guards
    # an answer must raise instead
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 1
    found = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert found == []


def test_package_raises_no_assertion_error():
    # a failed check in the package raises a TdcountError subclass or a
    # standard error the CLI maps to an exit code, never AssertionError
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                    found.append(f"{path.name}:{node.lineno}")
    assert found == []


def _top_level_names(tree) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def _references(tree) -> set[str]:
    """Names a module reads: loaded names, attributes, and strings that
    could name an attribute (monkeypatch targets)."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
    return found


def test_package_has_no_dead_module_level_names():
    # a definition is read beyond itself and its `__init__` re-export
    # (imports are not reads), in the package, its tests or the benchmark
    defined = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for name in _top_level_names(tree):
            defined.setdefault(name, []).append(path.name)
    read = set()
    for folder in ("src", "tests", "perfbench"):
        for path in sorted((REPO / folder).rglob("*.py")):
            read |= _references(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
    dead = sorted(
        f"{module}:{name}"
        for name, modules in defined.items()
        if name not in read and name != "__version__"
        for module in modules
    )
    assert dead == []


def test_only_dpcore_builds_tables():
    # handlers yield entries that `dpcore`'s value kinds make, and `dpcore`
    # alone decides which entries a table keeps, so no other module
    # constructs a row, a table or a store, reaches a row table's dict, or
    # calls a value kind's table builder or root total on lean tables
    built = {"DpTable", "Row", "TableStore", "_lean_table"}
    reached = {"rows", "table", "total"}
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "dpcore.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name in built:
                    found.append(f"{path.name}:{node.lineno} {name}(")
            elif isinstance(node, ast.Attribute) and node.attr in reached:
                found.append(f"{path.name}:{node.lineno} .{node.attr}")
    assert found == []


def test_dpcore_reads_no_state_kind_from_a_type():
    # each check state answers for its own solutions and bounds; only
    # the trace's report of the largest witness set looks at a state's type
    tree = ast.parse((PACKAGE / "dpcore.py").read_text(encoding="utf-8"))
    owner = _owners(tree)
    callers = [
        owner.get(node)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
    ]
    assert callers == ["_max_witness_set"]


def test_passes_take_their_arithmetic_from_the_value_kind():
    # a pass reads a mode's leaf value, product, merge rule and labels
    # from its `Values`, never by naming the mode
    tree = ast.parse((PACKAGE / "dpcore.py").read_text(encoding="utf-8"))
    passes = [f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name.endswith("traverse")]
    assert {"traverse", "vector_traverse", "packed_traverse"} <= {f.name for f in passes}
    readers = [
        f"{scope.name}:{node.lineno}"
        for scope in passes
        for node in ast.walk(scope)
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "Mode"
    ]
    assert readers == []


def test_provenance_holds_only_entry_makers():
    # the pass over sets of rows keeps no value, so its kind has nothing
    # to merge, bound or total
    assert all(callable(getattr(PROVENANCE, name)) for name in ("leaf", "carry", "forget", "join"))
    assert [name for name in ("merge", "least", "total") if hasattr(PROVENANCE, name)] == []


def _owners(tree) -> dict:
    """Each node of a module's tree mapped to its innermost function."""
    owner = {}
    for scope in ast.walk(tree):  # outer scopes first, so inner ones win
        if isinstance(scope, ast.FunctionDef):
            owner.update(dict.fromkeys(ast.walk(scope), scope.name))
    return owner


def test_one_node_loop_and_one_planner():
    # every table pass runs in `dpcore._post_order`, the one place that
    # checks a join's bags and names a failing node; and `plan_checks`
    # alone turns rules into masks, once per rule, for every pass.  The
    # model defines and prints rules, and the brute-force oracle reads
    # them on its own, apart from the passes it checks
    wrapped, bag_checks, rule_readers = [], [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        owner = _owners(tree)
        for node in ast.walk(tree):
            called = getattr(node.func, "id", None) if isinstance(node, ast.Call) else None
            where = f"{path.name}:{owner.get(node)}"
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
                if getattr(node.exc.func, "id", None) == "HandlerFailureError":
                    wrapped.append(where)
            elif called == "require_same_bag":
                bag_checks.append(where)
            elif isinstance(node, ast.Attribute) and node.attr in ("head", "body_pos", "body_neg"):
                if path.name not in ("model.py", "oracle.py"):
                    rule_readers.add(where)
    assert wrapped == ["dpcore.py:_post_order"]
    assert bag_checks == ["dpcore.py:_post_order"]
    assert rule_readers == {"dpcore.py:plan_checks"}


def test_readme_lists_exactly_the_cli_commands():
    # the README's CLI section gives each command one list line, led by the
    # command in backticks; a command is added in the table and there
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"^- `([a-z-]+)", section, flags=re.MULTILINE)
    assert sorted(listed) == sorted(cli.COMMANDS)
