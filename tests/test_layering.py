"""Import layering of the package, read from the source with ``ast``: the
quotient needs no linear algebra, and the oracle stays independent of the
decision procedure it cross-checks."""

import ast
from pathlib import Path

import pytest

import circleforms

PACKAGE = Path(circleforms.__file__).parent


def imported_modules(name):
    """Package modules that ``circleforms.<name>`` imports, anywhere in the file."""
    tree = ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module:
                found.add(node.module.split(".")[0])
            elif node.level == 1:
                found.update(alias.name for alias in node.names)
            elif node.module and node.module.startswith("circleforms."):
                found.add(node.module.split(".")[1])
            elif node.module == "circleforms":
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("circleforms."))
    return found


@pytest.mark.parametrize("module,forbidden", [("quotient", "oracle"), ("oracle", "equivalence")])
def test_module_does_not_import(module, forbidden):
    assert forbidden not in imported_modules(module)


def test_reader_sees_imports():
    assert {"forms", "matrices"} <= imported_modules("oracle")
    assert "polymaps" in imported_modules("quotient")
