import importlib

import pytest

MODULES = ["corpus", "embedding", "metrics", "net", "pipeline", "readability", "synth", "textstats"]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(f"bookpred.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
