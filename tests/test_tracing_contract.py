"""Every function the benchmark's tracer wraps must exist under the name it
looks up: a rename then fails here rather than in a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TRACED
    missing = []
    for name, module_name, attr in tracing.TRACED:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{name}: {module_name}.{attr}")
    assert not missing, "traced names that do not resolve:\n" + "\n".join(missing)
