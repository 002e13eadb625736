"""perfbench's tracer wraps uqmc functions by module and name, so a renamed
or deleted function breaks ``perfbench/run.py --trace 1``; every name it
lists must still resolve in this checkout's ``src/uqmc``."""

import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves():
    missing = []
    for _, modname, qual, _ in _tracing().TARGETS:
        module = importlib.import_module(modname)
        assert Path(module.__file__).resolve().is_relative_to(ROOT / "src" / "uqmc")
        if "." in qual:  # install() wraps the method on the class that defines it
            cls_name, meth = qual.split(".")
            ok = meth in vars(getattr(module, cls_name, object))
        else:
            ok = callable(getattr(module, qual, None))
        if not ok:
            missing.append(f"{modname}.{qual}")
    assert not missing
