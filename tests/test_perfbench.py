"""The benchmark's tracer binds rotobh functions by name; they must exist."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_every_traced_function_exists():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [
        "%s.%s" % (module, name) for module, name, _ in tracer.TRACED
        if not callable(getattr(importlib.import_module("rotobh." + module),
                                name, None))]
    assert tracer.TRACED and not missing, missing
