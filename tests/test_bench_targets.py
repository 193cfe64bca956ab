"""Every function the benchmark tracer wraps must exist, so that a rename
in the package shows up here rather than as a silently absent span."""

import importlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import tracer  # noqa: E402


def test_every_tracer_target_exists():
    absent = [
        f"{module}.{name}"
        for module, name, _ in tracer.TARGETS
        if not callable(getattr(importlib.import_module(f"bookpred.{module}"), name, None))
    ]
    assert absent == []
