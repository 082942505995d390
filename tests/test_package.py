import ast
import dataclasses
import functools
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

MODULES = ("topology", "blockvec", "objectives", "solver", "hardcase", "experiments", "cli")

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name", MODULES)
def test_star_import_resolves_every_exported_name(name):
    # a stale __all__ entry makes the star import raise AttributeError
    exec(f"from gossipopt.{name} import *", {})


def _is_all_assignment(node):
    return isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
    )


def _referenced_names(path):
    """Identifiers a file uses, as two sets.

    The first holds names, attributes, imported names, and string constants
    that are a bare identifier (``setattr(module, "name", ...)``). The
    second holds only the ways to reach a class member: attribute loads
    (``result.state``), imported names and those string constants. A bare
    name is a local variable or a module-level name, so a member named like
    a local (``state = ...``) is not used by it.

    Definitions (``def name``, ``class name``, a dataclass field's
    ``name: type``), keyword arguments (``Report(name=...)``) and the
    ``__all__`` list are not uses, so a name counts only where something
    else reaches it.
    """
    names, members = set(), set()
    stack = [ast.parse(path.read_text(), filename=str(path))]
    while stack:
        node = stack.pop()
        if _is_all_assignment(node):
            continue
        if isinstance(node, ast.AnnAssign):
            stack.extend(filter(None, (node.annotation, node.value)))
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
            if isinstance(node.ctx, ast.Load):
                members.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
            members.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                names.add(node.value)
                members.add(node.value)
        stack.extend(ast.iter_child_nodes(node))
    return names, members


def _exported(name):
    """Dotted names module ``name`` exports: each entry of its ``__all__``
    and, for an exported class, each public method or property the class
    itself defines and each of its dataclass fields."""
    module = importlib.import_module(f"gossipopt.{name}")
    for exported in getattr(module, "__all__", ()):
        yield f"{name}.{exported}"
        value = getattr(module, exported)
        if not inspect.isclass(value):
            continue
        if dataclasses.is_dataclass(value):
            for f in dataclasses.fields(value):
                yield f"{name}.{exported}.{f.name}"
        for member, attr in vars(value).items():
            if not member.startswith("_") and (
                inspect.isfunction(attr)
                or isinstance(attr, (property, functools.cached_property))
            ):
                yield f"{name}.{exported}.{member}"


# Fields that no program here reads, each kept for its reader: the event
# sink of ROADMAP item 3 records the Lyapunov components, item 8 prints the
# measured contraction ratio of the compound operator, and a run's final
# state is its final iterate, the answer a library caller of solver.run
# reads.
UNREAD_FIELDS_KEPT = {
    "solver.LyapunovReport.components",  # ROADMAP item 3
    "topology.ValidationReport.spectral_worst_ratio",  # ROADMAP item 8
    "solver.RunResult.state",  # the library's answer
}


def test_every_exported_name_has_a_caller():
    # The package's re-exports in __init__.py are not callers.
    package = ROOT / "src" / "gossipopt"
    sources = [p for p in package.glob("*.py") if p.name != "__init__.py"]
    sources += (ROOT / "bench").glob("*.py")
    sources.append(ROOT / "tests" / "test_acceptance.py")
    found = [_referenced_names(p) for p in sources]
    names = set().union(*(f[0] for f in found))
    members = set().union(*(f[1] for f in found))
    unused = [
        dotted
        for name in MODULES
        for dotted in _exported(name)
        # module.name, or module.Class.member
        if dotted.rsplit(".", 1)[1] not in (members if dotted.count(".") == 2 else names)
        and dotted not in UNREAD_FIELDS_KEPT
    ]
    assert not unused, f"exported but never used outside a unit test: {unused}"


def test_package_has_no_assert_statement():
    # python -O strips assert statements, so an invariant must raise instead
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted((ROOT / "src" / "gossipopt").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in src/gossipopt: {found}"


# The package modules each module imports. experiments sits on top of these
# five and cli on top of experiments; neither is imported from below.
IMPORT_GRAPH = {
    "blockvec": set(),
    "objectives": set(),
    "topology": {"blockvec"},
    "solver": {"blockvec", "objectives"},
    "hardcase": {"objectives", "topology"},
}


def _package_imports(name):
    """Package modules that ``from . import x`` or ``from .x import ...``
    lines in module ``name`` reach, at any depth of the file."""
    tree = ast.parse((ROOT / "src" / "gossipopt" / f"{name}.py").read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:
                found.update(alias.name for alias in node.names)
            else:
                found.add(node.module.split(".")[0])
    return found


def test_package_import_layers():
    graph = {name: _package_imports(name) for name in MODULES}
    assert {name: graph[name] for name in IMPORT_GRAPH} == IMPORT_GRAPH
    assert graph["experiments"] <= set(IMPORT_GRAPH)
    assert graph["cli"] <= set(IMPORT_GRAPH) | {"experiments"}


def _modules_added(preload, target):
    """Names in ``sys.modules`` that ``import target`` adds in a fresh
    interpreter that has imported ``preload``, with this checkout's package
    on the path."""
    code = (
        f"import sys, {preload}\n"
        "before = set(sys.modules)\n"
        f"import {target}\n"
        "print(*sorted(set(sys.modules) - before))"
    )
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    return set(done.stdout.split())


def _reached(name):
    """Package modules that importing module ``name`` reaches in
    IMPORT_GRAPH, itself included."""
    reached, todo = set(), [name]
    while todo:
        module = todo.pop()
        if module not in reached:
            reached.add(module)
            todo.extend(IMPORT_GRAPH[module])
    return reached


@pytest.mark.parametrize("name", sorted(IMPORT_GRAPH))
def test_import_loads_only_the_modules_the_graph_reaches(name):
    # The package root imports nothing, so a module loads only its own
    # layer: topology needs neither the objectives nor scipy.special.
    loaded = _modules_added("numpy", f"gossipopt.{name}")
    package = {m for m in loaded if m.split(".")[0] == "gossipopt"}
    assert package == {"gossipopt"} | {f"gossipopt.{m}" for m in _reached(name)}
    assert ("scipy.special" in loaded) == ("objectives" in _reached(name))


def test_import_leaves_scipy_sparse_unloaded():
    # A cold import of scipy.sparse takes about 0.4 s, as long as a whole
    # sweep set-up; a schedule that needs it must import it lazily.
    # Importing cli loads every module of the package. Only what that adds
    # counts: on some scipy versions scipy.special itself may load it.
    loaded = _modules_added("numpy, scipy.special", "gossipopt.cli")
    assert "gossipopt.topology" in loaded
    assert sorted(m for m in loaded if m.startswith("scipy.sparse")) == []
