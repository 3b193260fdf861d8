"""The library still holds every binding the benchmark tracer wraps.

The tracer in ``benchmarks/tracing.py`` reports a binding it cannot find as
absent and runs on, so a deleted name would only make a layer metric read
0. This checks every hook against the library as it stands.
"""

import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def test_every_tracer_hook_resolves(monkeypatch):
    spec = importlib.util.spec_from_file_location("leoroute_bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up in sys.modules.
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    absent = [
        f"{module}.{path}"
        for _, module, path, _, _ in tracing.HOOKS
        if tracing._resolve(module, path) is None
    ]
    assert tracing.HOOKS
    assert absent == []
