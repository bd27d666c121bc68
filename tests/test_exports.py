"""Export guard: every exported name exists, so a stale export fails here and
not in a user's import."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import pbemoc

MODULES = sorted(info.name for info in pkgutil.iter_modules(pbemoc.__path__) if info.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_exists(name):
    module = importlib.import_module(f"pbemoc.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_every_name_the_package_imports_exists_and_is_exported():
    tree = ast.parse(Path(pbemoc.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"pbemoc.{node.module}")
        for alias in node.names:
            assert hasattr(module, alias.name), f"pbemoc.{node.module}.{alias.name}"
            assert alias.name in module.__all__, f"pbemoc.{node.module}.{alias.name}"
            assert hasattr(pbemoc, alias.asname or alias.name)
