import importlib
import pkgutil

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
