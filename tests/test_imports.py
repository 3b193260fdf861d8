"""Every import in the package is used, the root exports what it imports,
numpy is the one package needed at run time, and only the strategy table
names a strategy.

Import statements marked ``# noqa: F401`` are exempt: they keep bindings
that ``benchmarks/tracing.py`` wraps by name, and each must be one that its
``HOOKS`` wrap.
"""

import ast
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import leoroute
from leoroute import experiments

PACKAGE_DIR = Path(leoroute.__file__).parent
MODULES = sorted(p for p in PACKAGE_DIR.glob("*.py") if p.name != "__init__.py")
TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def imported_names(tree, lines, hook_only=False):
    """(bound name, line) of each import not marked ``# noqa: F401``, or of
    each import so marked when ``hook_only``."""
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if ("# noqa: F401" in lines[node.lineno - 1]) != hook_only:
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            yield name, node.lineno


def annotations(tree):
    """Every annotation expression in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            every = [*args.posonlyargs, *args.args, *args.kwonlyargs]
            every += [a for a in (args.vararg, args.kwarg) if a is not None]
            yield from (a.annotation for a in every if a.annotation is not None)
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def used_names(tree):
    """Names read anywhere in ``tree``, quoted annotations included."""
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for annotation in annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                quoted = ast.parse(node.value, mode="eval")
                used.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    text = path.read_text()
    tree = ast.parse(text)
    used = used_names(tree)
    unused = [
        f"{name} (line {line})"
        for name, line in imported_names(tree, text.splitlines())
        if name not in used
    ]
    assert unused == []


def test_root_exports_exactly_its_imports():
    text = (PACKAGE_DIR / "__init__.py").read_text()
    names = [name for name, _ in imported_names(ast.parse(text), text.splitlines())]
    assert sorted(leoroute.__all__) == sorted([*names, "__version__"])


def test_hook_only_imports_are_wrapped_by_the_tracer(monkeypatch):
    spec = importlib.util.spec_from_file_location("leoroute_bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up in sys.modules.
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    hooked = {(module, path) for _, module, path, _, _ in tracing.HOOKS}
    unhooked = []
    for path in MODULES:
        text = path.read_text()
        lines = text.splitlines()
        for name, line in imported_names(ast.parse(text), lines, hook_only=True):
            if (f"leoroute.{path.stem}", name) not in hooked:
                unhooked.append(f"{path.name}: {name} (line {line})")
    assert unhooked == []


def strategy_literals(node):
    """Strategy names written as literals in ``node``, or in the tuple, list
    or set literal that ``node`` is."""
    elements = node.elts if isinstance(node, (ast.Tuple, ast.List, ast.Set)) else [node]
    return [
        e.value
        for e in elements
        if isinstance(e, ast.Constant) and e.value in experiments.STRATEGIES
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_decides_by_strategy_name(path):
    """A strategy's behaviour is read from its row of ``STRATEGY``: no
    comparison with a strategy-name literal, and no dict literal keyed by
    one, so adding a strategy is adding a row."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            names = [name for o in operands for name in strategy_literals(o)]
        elif isinstance(node, ast.Dict):
            names = [name for k in node.keys if k for name in strategy_literals(k)]
        else:
            continue
        found += [f"{name} (line {node.lineno})" for name in names]
    assert found == []


def test_the_command_line_needs_only_numpy():
    """A fresh interpreter imports the command line without click or
    multiprocessing (a serial run starts no pool), and the package declares
    numpy as its only run-time dependency."""
    path = [str(PACKAGE_DIR.parent), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    done = subprocess.run(
        [sys.executable, "-c", "import sys, leoroute.cli; print(sorted(sys.modules))"],
        capture_output=True, text=True, check=True, env=env,
    )
    loaded = ast.literal_eval(done.stdout)
    assert "leoroute.cli" in loaded
    assert [m for m in loaded if m.split(".")[0] == "click"] == []
    assert [m for m in loaded if m.split(".")[0] == "multiprocessing"] == []
    tomllib = pytest.importorskip("tomllib")
    required = tomllib.loads(PYPROJECT.read_text())["project"]["dependencies"]
    assert [re.match(r"[A-Za-z0-9_.-]+", r).group() for r in required] == ["numpy"]
