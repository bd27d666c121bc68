"""Export guard: every exported name exists, so a stale export fails here and
not in a user's import, and every exported name has a caller in the package
or the benchmark, so no name is public for the tests alone."""

import ast
import importlib
import io
import pkgutil
import tokenize
from collections import Counter
from pathlib import Path

import pytest

import pbemoc

MODULES = sorted(info.name for info in pkgutil.iter_modules(pbemoc.__path__) if info.name != "__main__")

PACKAGE = Path(pbemoc.__file__).parent
BENCH = PACKAGE.parents[1] / "bench"


def _uses(path: Path) -> Counter:
    """NAME tokens of a source file, except where a def, a class or a
    module-level assignment defines the name."""
    tokens = [
        t
        for t in tokenize.generate_tokens(io.StringIO(path.read_text()).readline)
        if t.type in (tokenize.NAME, tokenize.OP)
    ]
    uses = Counter()
    for i, tok in enumerate(tokens):
        if tok.type != tokenize.NAME:
            continue
        defined = i > 0 and tokens[i - 1].string in ("def", "class")
        assigned = tok.start[1] == 0 and i + 1 < len(tokens) and tokens[i + 1].string in ("=", ":")
        if not (defined or assigned):
            uses[tok.string] += 1
    return uses


def _callers() -> Counter:
    # the package's __init__ only re-exports, so it calls nothing
    paths = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"] + sorted(BENCH.glob("*.py"))
    return sum((_uses(p) for p in paths), Counter())


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


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_has_a_caller(name):
    module = importlib.import_module(f"pbemoc.{name}")
    callers = _callers()
    assert [n for n in getattr(module, "__all__", ()) if callers[n] == 0] == []
