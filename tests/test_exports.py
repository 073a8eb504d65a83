import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import storop

MODULES = ["storop"] + [
    f"storop.{m.name}" for m in pkgutil.iter_modules(storop.__path__) if m.name != "__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves_once(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), sorted(n for n in exported if exported.count(n) > 1)
    assert [n for n in exported if not hasattr(module, n)] == []


def test_the_package_reexports_only_backend_name():
    # every other public name is imported from the module that defines it
    assert storop.__all__ == ["__version__", "backend_name"]
    code = "import sys, storop; print(*sorted(m for m in sys.modules if m.startswith('storop.')))"
    env = dict(os.environ, PYTHONPATH=str(Path(storop.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    ).stdout.split()
    assert out == ["storop.reduction", "storop.terms"]
