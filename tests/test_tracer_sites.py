"""Every call site the benchmark's tracer wraps must exist.

``bench/tracer.py`` replaces each (module, name) in ``SITES`` with a
timing wrapper, so a name moved out of a module breaks a traced benchmark
run.  The tracer needs only the standard library, so it is loaded from
its file here.
"""
import importlib
import importlib.util
from pathlib import Path

_TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_every_tracer_site_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracer", _TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [
        f"{module_name}.{attr}"
        for module_name, attr, _ in tracer.SITES
        if not callable(getattr(importlib.import_module(module_name), attr, None))
    ]
    assert missing == []
