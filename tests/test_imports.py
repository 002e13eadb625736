"""Import cost guard: ``import uqmc`` loads only the scipy it needs.

``scipy.integrate`` pulls in ``scipy.optimize``, ``scipy.linalg``,
``scipy.sparse`` and ``scipy.fft``, about a third of the start-up time of
every ``uqmc run``; ``scipy.stats`` costs more still.
"""

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


def test_no_source_file_refers_to_scipy_integrate():
    pattern = re.compile(r"scipy\.integrate|from\s+scipy\s+import\s+.*\bintegrate\b")
    hits = [
        f"{path.relative_to(SRC)}:{i}"
        for path in sorted(SRC.rglob("*.py"))
        for i, line in enumerate(path.read_text().splitlines(), 1)
        if pattern.search(line)
    ]
    assert hits == []
