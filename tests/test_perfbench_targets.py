"""The benchmark tracer patches package functions by name; keep them there."""

from __future__ import annotations

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for short, names in tracing.TARGETS.items():
        module = importlib.import_module(f"simplexfreedom.{short}")
        for qual in names:
            owner = module
            for part in qual.split("."):
                owner = getattr(owner, part, None)
            if not callable(owner):
                missing.append(f"{short}.{qual}")
    assert not missing, f"tracer targets missing from the package: {missing}"
