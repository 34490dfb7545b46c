"""The package's public names. Every ``__all__`` entry of a qll module
resolves, and every name ``qll/__init__.py`` imports is in its module's
``__all__``, so deleting a function cannot leave a stale export behind."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import qll

MODULES = sorted(m.name for m in pkgutil.iter_modules(qll.__path__))


@pytest.mark.parametrize("module", MODULES)
def test_every_all_entry_resolves(module):
    mod = importlib.import_module(f"qll.{module}")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def test_package_imports_only_public_names():
    tree = ast.parse(Path(qll.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert {node.module for node in imports} <= set(MODULES) and imports
    for node in imports:
        public = importlib.import_module(f"qll.{node.module}").__all__
        assert [a.name for a in node.names if a.name not in public] == [], node.module
