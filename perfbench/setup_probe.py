"""Set-up probe, run in a fresh interpreter by run.py.

    python3 perfbench/setup_probe.py <src dir>  < configs.json

Reads a JSON list of configuration texts from standard input, then
times importing uqmc from <src dir>, validating every configuration and
building its problem bundle, and prints the seconds taken.
"""

import sys

texts = sys.stdin.read()
sys.path.insert(0, sys.argv[1])

from time import perf_counter  # noqa: E402

started = perf_counter()
import uqmc  # noqa: E402
from uqmc.cli import validate_config  # noqa: E402

import json  # noqa: E402  (already loaded by uqmc.cli)

for text in json.loads(texts):
    cfg = validate_config(text)
    uqmc.builtin_problem(cfg["problem"]["name"], cfg["problem"]["params"])
print(perf_counter() - started)
