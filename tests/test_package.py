"""The package's public surface: `__all__` as `from cubeperc import *`
sees it, and the dependencies it declares."""

import ast
import re
import sys
from pathlib import Path

import cubeperc

ROOT = Path(__file__).resolve().parent.parent


def test_star_import_exports_all():
    # the star import raises AttributeError on an entry that does not
    # resolve
    namespace = {}
    exec("from cubeperc import *", namespace)
    names = cubeperc.__all__
    assert set(names) <= set(namespace)
    assert len(set(names)) == len(names)
    assert names == sorted(names)


def declared_dependencies() -> set[str]:
    """Distribution names under [project] dependencies, read with a regex
    because tomllib is missing from Python 3.10, which requires-python
    admits."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    block = re.search(r"^dependencies = \[(.*?)\]", text, re.M | re.S).group(1)
    return {re.match(r"[\w.-]+", req).group(0).lower() for req in re.findall(r'"([^"]+)"', block)}


def test_declared_dependencies_cover_imports():
    # nested imports count too: an import guarded inside a function is
    # still an API the code uses.  Each dependency here is imported
    # under its distribution name.
    imported = set()
    for path in (ROOT / "src" / "cubeperc").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.partition(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.partition(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"cubeperc"}
    assert {"numpy", "scipy"} <= third_party  # the scan reached the package
    assert third_party <= declared_dependencies()
