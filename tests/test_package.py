"""The package's public surface: `__all__` as `from cubeperc import *`
sees it, the dependencies it declares, that every public name has a
reader, that every package name the benchmark reads exists, and that
one module holds the packed vertex-set format."""

import ast
import importlib.util
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


def test_packed_vertex_format_stays_in_percolation():
    # `percolation` alone packs and unpacks vertex sets (`flip_across`,
    # `unpack_vertices`, the sample's bitsets); a bit order spelled out
    # anywhere else is a second copy of the format
    spelled = sorted(
        path.name
        for path in (ROOT / "src" / "cubeperc").glob("*.py")
        if "bitorder=" in path.read_text(encoding="utf-8")
    )
    assert spelled == ["percolation.py"]


def _defined(stmt) -> set[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, ast.Assign):
        return {t.id for t in stmt.targets if isinstance(t, ast.Name)}
    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        return {stmt.target.id}
    return set()


def _referenced(tree) -> set[str]:
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.rpartition(".")[2])
    return out


def test_every_public_name_is_used():
    # a public top-level name must be reached from the package itself
    # (outside its own definition), the acceptance gates or the
    # benchmark; deserialize reads the files `sample --out` writes
    public, seen = set(), set()
    for path in (ROOT / "src" / "cubeperc").glob("*.py"):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            names = _defined(stmt)
            public |= {name for name in names if not name.startswith("_")}
            seen |= _referenced(stmt) - names
    for path in [ROOT / "tests" / "test_acceptance.py", *(ROOT / "perfbench").glob("*.py")]:
        seen |= _referenced(ast.parse(path.read_text(encoding="utf-8")))
    assert "build_good_map" in public  # the scan reached the package
    assert public - seen == {"deserialize"}


def test_benchmark_reads_resolve(monkeypatch):
    # perfbench/ reaches into the package by attribute: tracing.py wraps
    # each Layer's owner.attr, and the workloads and run.py read module
    # names.  A refactor that drops one of them must fail here, not only
    # when the benchmark runs.
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while they are built
    monkeypatch.setitem(sys.modules, "tracing", tracing)
    spec.loader.exec_module(tracing)
    for layer in tracing.LAYERS:
        assert hasattr(layer.owner, layer.attr), layer.name

    modules = ("metrics", "percolation", "embedding", "cycles", "routing", "harness")
    read = set()
    for path in (ROOT / "perfbench").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id in modules:
                    read.add((node.value.id, node.attr))
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("cubeperc."):
                read.update((node.module.partition(".")[2], a.name) for a in node.names)
    assert ("metrics", "_numba") in read  # the scan reached run.py
    missing = [
        f"{module}.{name}"
        for module, name in sorted(read)
        if not hasattr(importlib.import_module(f"cubeperc.{module}"), name)
    ]
    assert missing == []
