"""Unused imports in ``src/repro``: stands in for F401 of CI's ``ruff check``,
which the build container does not have.  Plus the checks ruff has no rule
for: the packages' ``__all__`` lists name only things that exist, and the
sharded runner and the process machinery stay out of what the library, the
CLI and the runtime load."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def _names(node: ast.AST) -> set[str]:
    """Names read under ``node``, and in strings that parse as expressions:
    quoted annotations (``TYPE_CHECKING`` imports) and ``__all__`` entries."""
    names: set[str] = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            names.add(child.id)
        elif isinstance(child, ast.Constant) and isinstance(child.value, str):
            try:
                names |= _names(ast.parse(child.value.strip(), mode="eval"))
            except SyntaxError:
                pass  # prose, not an annotation
    return names


def test_no_unused_imports():
    unused = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "__init__.py":  # re-export modules
            continue
        tree = ast.parse(path.read_text())
        used = _names(tree)
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                if (alias.asname or alias.name).split(".")[0] not in used:
                    unused.append(f"{path.relative_to(SRC)}:{node.lineno} {alias.name}")
    assert not unused, "unused imports:\n" + "\n".join(unused)


PACKAGES = sorted(
    ".".join(path.parent.relative_to(SRC.parent).parts) for path in SRC.rglob("__init__.py")
)


@pytest.mark.parametrize("package", PACKAGES)
def test_export_list_resolves(package):
    """Every ``__all__`` entry of a package is importable from it, once."""
    module = importlib.import_module(package)
    exported = module.__all__
    assert len(exported) == len(set(exported))
    assert [name for name in exported if not hasattr(module, name)] == []


def test_sharded_runner_is_not_imported_by_the_public_surface():
    """Only the benchmark's two-shard block and the shard tests load
    ``repro.simulator.shard``; importing the package, the CLI, the runtime
    or the simulator package must not pull it in."""
    probe = (
        "import sys, repro, repro.cli, repro.runtime, repro.simulator; "
        "print('repro.simulator.shard' in sys.modules)"
    )
    completed = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(SRC.parent)},
    )
    assert completed.stdout.strip() == "False"


#: Modules of the public surface, and the process machinery none of them
#: may load at import time: a process that never starts a worker would pay
#: ≈ 2.2 MiB of peak RSS for it.
SURFACE = (
    "repro",
    "repro.cli",
    "repro.runtime",
    "repro.runtime.executor",
    "repro.simulator",
    "repro.simulator.shard",
)
PROCESS_MACHINERY = (
    "multiprocessing",
    "concurrent.futures",
    "pickle",
    "queue",
    "subprocess",
    "socket",
    "platform",
)


def test_process_machinery_is_imported_only_where_a_process_starts():
    """The pool, the worker fleet and the report's provenance import their
    machinery when they run; importing the surface loads none of it.  The
    probe compares against the same interpreter's own start-up modules."""
    probe = (
        "import importlib, sys; before = set(sys.modules); "
        f"[importlib.import_module(name) for name in {SURFACE!r}]; "
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    completed = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(SRC.parent)},
    )
    loaded = set(completed.stdout.split())
    assert "repro.simulator.shard" in loaded
    assert sorted(loaded.intersection(PROCESS_MACHINERY)) == []


def test_nothing_in_src_maps_a_file():
    """Trace files are read through their handle one chunk at a time; a
    memory mapping would keep every page of a replayed file resident."""
    importers = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(module.split(".")[0] == "mmap" for module in modules):
                importers.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert importers == []
