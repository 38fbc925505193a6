"""Every name a module of the package imports is used in that module; the
package's __init__.py, whose imports are its re-exports, is exempt."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "qptrim"


def unused_imports(source: str) -> list:
    """Names bound by an import statement in `source` that no name
    expression reads, in the order they are imported."""
    tree = ast.parse(source)
    imported = [alias.asname or alias.name.split(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read]


def test_unused_import_found():
    source = ("import json\nimport numpy as np\nfrom .trim import a, b\n"
              "x = np.zeros(1) + b\n")
    assert unused_imports(source) == ["json", "a"]


@pytest.mark.parametrize("module", sorted(
    p.name for p in SRC.glob("*.py") if p.name != "__init__.py"))
def test_every_import_is_used(module):
    assert unused_imports((SRC / module).read_text()) == []
