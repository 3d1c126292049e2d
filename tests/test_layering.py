"""The package graph is a DAG in one declared layer order.

``LAYERS`` lists the top-level modules of :mod:`repro` bottom-up.  A
module imports, at run time, only from strictly lower rows or from
inside its own package; modules on one row do not import each other.
Three checks hold the graph to that:

* a static pass over the source (every import, classified as module
  level, ``TYPE_CHECKING``-only, or function-local);
* every module imports on its own from a clean ``repro`` state — an
  import cycle shows up here as a partially initialised module;
* the serving path (fleet, serve, the experiment runner a shard worker
  runs, and the CLI up to argument parsing) never loads scipy, whose LP
  solver only the offline ILP reference (:mod:`repro.core.ilp`) uses.

A new module or import that breaks the order fails here with the edge
that breaks it.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: Top-level modules of ``repro``, bottom-up.
LAYERS: list[set[str]] = [
    {"clock"},
    {"sim"},
    {"core"},
    {"encoding", "predictors", "metrics"},
    {"backends"},
    {"baselines", "workloads", "chaos"},
    {"fleet"},
    {"experiments"},
    {"serve"},
    {"cli"},
    {"__main__"},
]
RANK = {name: rank for rank, row in enumerate(LAYERS) for name in row}

#: The one module allowed function-local ``repro`` imports: an entry
#: point imports what the chosen subcommand runs.
LOCAL_IMPORTS_ALLOWED = {"repro.cli"}


def _module_name(path: Path) -> str:
    parts = list(path.relative_to(SRC).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


MODULES = sorted(_module_name(p) for p in (SRC / "repro").rglob("*.py"))


def _top(module: str) -> str:
    """``repro.fleet.sharding`` -> ``fleet``; the root package -> ``""``."""
    parts = module.split(".")
    return parts[1] if len(parts) > 1 else ""


def _targets(node: ast.Import | ast.ImportFrom, module: str, is_pkg: bool) -> list[str]:
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    base = node.module or ""
    if node.level:
        package = module.split(".") if is_pkg else module.split(".")[:-1]
        package = package[: len(package) - (node.level - 1)]
        base = ".".join(package + ([base] if base else []))
    return [base]


def _is_type_checking(node: ast.AST) -> bool:
    return isinstance(node, ast.If) and "TYPE_CHECKING" in ast.unparse(node.test)


def _imports(path: Path):
    """Yield ``(target, kind, line)`` for every ``repro`` import in a file.

    ``kind`` is ``"module"``, ``"typing"`` (under ``if TYPE_CHECKING``)
    or ``"local"`` (inside a function).
    """
    module = _module_name(path)
    is_pkg = path.name == "__init__.py"

    def visit(node: ast.AST, kind: str):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.Import, ast.ImportFrom)):
                for target in _targets(child, module, is_pkg):
                    if target == "repro" or target.startswith("repro."):
                        yield target, kind, child.lineno
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                yield from visit(child, "local")
            elif _is_type_checking(child) and kind == "module":
                yield from visit(child, "typing")
            else:
                yield from visit(child, kind)

    yield from visit(ast.parse(path.read_text()), "module")


def test_every_top_level_module_has_a_layer():
    tops = {_top(m) for m in MODULES} - {""}
    assert tops <= set(RANK), f"place {sorted(tops - set(RANK))} in LAYERS"


def test_imports_go_down_the_layer_order():
    problems = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        module = _module_name(path)
        own = _top(module)
        # The root package imports nothing, so ``import repro.x`` loads
        # only x and the layers below it.
        own_rank = RANK.get(own, -1)
        for target, kind, line in _imports(path):
            where = f"{path.relative_to(SRC)}:{line} {module} -> {target}"
            other = _top(target)
            same_package = other == own and own != ""
            downward = not same_package and RANK.get(other, len(RANK)) < own_rank
            if kind == "local" and module not in LOCAL_IMPORTS_ALLOWED:
                problems.append(f"{where}: function-local import")
            elif kind == "typing":
                if downward:
                    problems.append(f"{where}: lower layer, import it plainly")
            elif not (same_package or downward):
                problems.append(f"{where}: not a lower layer")
    assert not problems, "\n".join(problems)


def _run(code: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_every_module_imports_on_its_own():
    # The loop executes each module dozens of times: compile each once
    # (bytecode may not be written to disk) and execute it fresh each time.
    code = f"""
import importlib, json, sys
from importlib.machinery import SourceFileLoader
compiled = {{}}
get_code = SourceFileLoader.get_code
SourceFileLoader.get_code = lambda self, name: (
    compiled.get(name) or compiled.setdefault(name, get_code(self, name))
)
failures = []
for name in {MODULES!r}:
    for loaded in [m for m in sys.modules if m == "repro" or m.startswith("repro.")]:
        del sys.modules[loaded]
    try:
        importlib.import_module(name)
    except Exception as exc:
        failures.append(f"{{name}}: {{type(exc).__name__}}: {{exc}}")
print(json.dumps(failures))
"""
    failures = json.loads(_run(code))
    assert not failures, "\n".join(failures)


#: Modules a process starts in by name rather than by import.
ENTRY_POINTS = {"repro.__main__", "repro.experiments.shard_worker"}

#: Code outside ``src/`` that counts as a user; tests do not.
USERS = [SRC.parent / d for d in ("examples", "bench", "benchmarks")]


def _imported_modules(path: Path, module: str) -> set[str]:
    """Every ``repro`` module ``path`` may load at run time.

    ``from pkg import name`` counts for both ``pkg`` and ``pkg.name``;
    imports under ``if TYPE_CHECKING`` do not count.
    """
    is_pkg = path.name == "__init__.py"
    out: set[str] = set()

    def visit(node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.Import, ast.ImportFrom)):
                for base in _targets(child, module, is_pkg):
                    out.add(base)
                    if isinstance(child, ast.ImportFrom):
                        out.update(f"{base}.{a.name}" for a in child.names)
            elif not _is_type_checking(child):
                visit(child)

    visit(ast.parse(path.read_text()))
    return {m for m in out if m in MODULES}


def _names_used(path: Path) -> set[str]:
    names: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
    return names


def _reexports(init: Path, module: str) -> set[str]:
    """Names the package ``init`` takes from its submodule ``module``."""
    package = module.rsplit(".", 1)[0]
    return {
        alias.asname or alias.name
        for node in ast.walk(ast.parse(init.read_text()))
        if isinstance(node, ast.ImportFrom)
        and _targets(node, package, True)[0] == module
        for alias in node.names
    }


def test_no_module_is_reachable_only_from_tests():
    """Every module has a user that is not a test.

    A module is used when another ``src/`` module, an example, the
    ``bench/`` harness or a benchmark imports it, or it is an entry
    point.  A package ``__init__`` re-export alone does not count: one
    of the names it re-exports must then be used in ``src/``,
    ``examples/``, ``bench/`` or ``benchmarks/``.
    """
    src_files = {
        _module_name(p): p for p in sorted((SRC / "repro").rglob("*.py"))
    }
    user_files = [p for d in USERS for p in sorted(d.rglob("*.py"))]
    importers: dict[str, set[str]] = {m: set() for m in MODULES}
    for name, path in src_files.items():
        for target in _imported_modules(path, name) - {name}:
            importers[target].add(name)
    for path in user_files:
        for target in _imported_modules(path, "__user__"):
            importers[target].add(str(path.relative_to(SRC.parent)))
    names = {str(p): _names_used(p) for p in [*src_files.values(), *user_files]}

    problems = []
    for module, path in src_files.items():
        if path.name == "__init__.py" or module in ENTRY_POINTS:
            continue
        package = module.rsplit(".", 1)[0]
        users = importers[module]
        if users - {package}:
            continue
        if users == {package}:
            exported = _reexports(src_files[package], module)
            elsewhere = [
                n
                for p, n in names.items()
                if p not in (str(path), str(src_files[package]))
            ]
            if any(exported & n for n in elsewhere):
                continue
            problems.append(
                f"{module}: only {package} re-exports it, and no user "
                f"names any of {sorted(exported)}"
            )
        else:
            problems.append(f"{module}: nothing outside the tests imports it")
    assert not problems, "\n".join(problems)


def test_serving_path_does_not_load_scipy():
    code = """
import json, sys
import repro.cli
import repro.experiments.runner
import repro.experiments.shard_worker
import repro.experiments.sharded
import repro.fleet
import repro.serve
repro.cli._build_parser()
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""
    assert json.loads(_run(code)) == []
