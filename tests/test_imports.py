"""Import cost guard: ``import uqmc`` loads only the scipy it needs.

``scipy.integrate`` pulls in ``scipy.optimize``, ``scipy.linalg``,
``scipy.sparse`` and ``scipy.fft``, about a third of the start-up time of
every ``uqmc run``; ``scipy.stats`` costs more still.
"""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
HEAVY = ("scipy.integrate", "scipy.optimize", "scipy.stats")


def test_import_loads_no_heavy_scipy_module():
    code = (
        "import json, sys, uqmc, uqmc.cli; "
        f"print(json.dumps([m for m in {HEAVY!r} if m in sys.modules]))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True, timeout=120,
    )
    assert json.loads(out.stdout) == []


def test_import_starts_no_thread_pool():
    # The pool of the input, mixture and reweighting passes is made on first use.
    code = (
        "import threading, uqmc, uqmc.cli; from uqmc import _threads; "
        "print(threading.active_count(), len(_threads._pools))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True, timeout=120,
    )
    assert out.stdout.split() == ["1", "0"]


def test_concurrent_futures_imported_only_inside_functions():
    # scipy.special loads concurrent.futures (through numpy.testing), so
    # sys.modules cannot show whether uqmc imports it: read the sources.
    def module_level(node):
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                yield child
                yield from module_level(child)

    hits = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        for node in module_level(ast.parse(path.read_text()))
        if isinstance(node, ast.Import) and any(a.name.startswith("concurrent") for a in node.names)
        or isinstance(node, ast.ImportFrom) and (node.module or "").startswith("concurrent")
    ]
    assert hits == []


def test_no_source_file_refers_to_scipy_integrate():
    pattern = re.compile(r"scipy\.integrate|from\s+scipy\s+import\s+.*\bintegrate\b")
    hits = [
        f"{path.relative_to(SRC)}:{i}"
        for path in sorted(SRC.rglob("*.py"))
        for i, line in enumerate(path.read_text().splitlines(), 1)
        if pattern.search(line)
    ]
    assert hits == []
