import importlib
import subprocess
import sys
from pathlib import Path

import pytest

MODULES = ["corpus", "embedding", "metrics", "net", "pipeline", "readability", "synth", "textstats"]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(f"bookpred.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_importing_the_package_imports_no_module():
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import bookpred; "
            "print(sorted(m for m in sys.modules if m.startswith('bookpred.')))")
    out = subprocess.run([sys.executable, "-c", code, str(src)], capture_output=True, text=True,
                         check=True).stdout
    assert out == "[]\n"
