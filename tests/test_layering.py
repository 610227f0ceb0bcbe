"""Import layering of the package, read from the source with ``ast``: the
quotient needs no linear algebra, the oracle stays independent of the
decision procedure it cross-checks, and no module reads the environment or
starts worker processes.  Also the public surface: ``__all__`` is the names
the package imports."""

import ast
from pathlib import Path
from types import ModuleType

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


PROCESS_MODULES = ("concurrent", "multiprocessing")
ENV_READERS = ("environ", "environb", "getenv", "getenvb")


def environment_and_process_uses(path):
    """Reads of the environment and imports of process-pool modules in one
    source file, as readable strings."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names
                      if alias.name.split(".")[0] in PROCESS_MODULES]
        elif isinstance(node, ast.ImportFrom) and not node.level and node.module:
            if node.module.split(".")[0] in PROCESS_MODULES:
                found.append(node.module)
            elif node.module == "os":
                found += [f"os.{alias.name}" for alias in node.names
                          if alias.name in ENV_READERS]
        elif isinstance(node, ast.Attribute) and node.attr in ENV_READERS:
            found.append(node.attr)
    return found


def test_no_environment_reads_or_process_pools():
    uses = {path.name: environment_and_process_uses(path) for path in PACKAGE.glob("*.py")}
    assert {name: found for name, found in uses.items() if found} == {}


def test_reader_sees_environment_and_process_uses(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text("import os\nimport multiprocessing.pool\n"
                      "from concurrent.futures import ProcessPoolExecutor\n"
                      "from os import getenv\nx = os.environ.get('K')\n", encoding="utf-8")
    assert environment_and_process_uses(source) == [
        "multiprocessing.pool", "concurrent.futures", "os.getenv", "environ"]


def test_all_is_every_public_name_the_package_imports():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    imported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.level == 1
                for alias in node.names}
    public = sorted(name for name in imported if not name.startswith("_"))
    assert circleforms.__all__ == public
    bound = {name for name, value in vars(circleforms).items()
             if not name.startswith("_") and not isinstance(value, ModuleType)}
    assert bound == set(public)


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from circleforms import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == circleforms.__all__
    assert all(namespace[name] is getattr(circleforms, name) for name in namespace)
