"""No dead code in src/groupflow: every module-level function or class is
referenced somewhere in the package, exported, or read by the benchmark,
every name a module imports is read in that module, and every import is at
module level.  No module keeps a functools cache.  And no source file uses
grammar newer than the oldest Python the project supports."""

from __future__ import annotations

import ast
import importlib
from collections import Counter
from pathlib import Path

import groupflow

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "groupflow"

# kept though nothing in src/ calls them, each for its reason
ALLOWED = {
    "jsonio.witness_from_json",     # the reader of the witness JSON the CLI writes
}


def _names_read(tree: ast.AST) -> Counter:
    """How often each name or attribute is read in tree."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute)))


def _perfbench_names() -> set[str]:
    """"module.name" for each groupflow name the benchmark uses: as an
    attribute of a groupflow module, imported from one, or in a
    ("module", "name") pair such as the span table's keys."""
    modules = {p.stem for p in SRC.glob("*.py")}
    named = set()
    for path in (ROOT / "perfbench").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in modules):
                named.add(f"{node.value.id}.{node.attr}")
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("groupflow."):
                named.update(f"{node.module[10:]}.{a.name}" for a in node.names)
            elif (isinstance(node, ast.Tuple) and len(node.elts) == 2
                  and all(isinstance(e, ast.Constant) and isinstance(e.value, str)
                          for e in node.elts)):
                named.add(".".join(e.value for e in node.elts))
    return named


def dead_definitions(src: Path = SRC) -> list[str]:
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(src.glob("*.py"))}
    read = sum((_names_read(t) for t in trees.values()), Counter())
    kept = ALLOWED | _perfbench_names()
    dead = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if read[node.name] > _names_read(node)[node.name]:
                continue                # read outside its own definition
            if node.name in groupflow.__all__ or f"{module}.{node.name}" in kept:
                continue
            dead.append(f"{module}.{node.name}")
    return dead


def test_no_dead_definitions():
    assert dead_definitions() == []


def unused_imports(src: Path = SRC) -> list[str]:
    """"module.name" for each name a module-level import binds that the
    module never reads; ``from __future__`` and the re-exports of
    ``__init__.py`` are exempt."""
    unused = []
    for path in sorted(src.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Import):
                bound = [a.asname or a.name.split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [a.asname or a.name for a in node.names]
            else:
                continue
            unused.extend(f"{path.stem}.{name}" for name in bound if name not in read)
    return unused


def test_no_unused_imports():
    assert unused_imports() == []


def function_imports(src: Path = SRC) -> list[str]:
    """"module.function" for each import statement inside a function body."""
    found = set()
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.update(f"{path.stem}.{node.name}" for inner in ast.walk(node)
                             if isinstance(inner, (ast.Import, ast.ImportFrom)))
    return sorted(found)


def test_no_imports_inside_functions():
    assert function_imports() == []


def module_caches(src: Path = SRC) -> list[str]:
    """"module.name" for each functools cache (lru_cache, cache) bound at
    module level: such a cache keeps what it returns alive for as long as
    the process runs, so a dropped group table would stay allocated."""
    found = []
    for path in sorted(src.glob("*.py")):
        module = importlib.import_module(
            "groupflow" if path.stem == "__init__" else f"groupflow.{path.stem}")
        found.extend(f"{path.stem}.{name}" for name, value in vars(module).items()
                     if callable(getattr(value, "cache_clear", None)))
    return found


def test_no_module_level_caches():
    assert module_caches() == []


def newer_syntax(roots=("src", "tests", "perfbench"), version=(3, 10)) -> list[str]:
    """"path:line: message" for each .py file under the roots that the
    grammar of Python ``version`` rejects, such as ``except*`` for 3.10."""
    found = []
    for root in roots:
        for path in sorted((ROOT / root).rglob("*.py")):
            try:
                ast.parse(path.read_text(), filename=str(path), feature_version=version)
            except SyntaxError as err:
                found.append(f"{path.relative_to(ROOT)}:{err.lineno}: {err.msg}")
    return found


def test_sources_parse_as_python_310():
    """pyproject.toml allows Python 3.10, so every file the package, its
    tests and its benchmark hold must parse with 3.10's grammar."""
    assert newer_syntax() == []


def test_perfbench_names_are_found():
    named = _perfbench_names()
    assert {"jsonio.witness_from_json", "graphs.add_edge", "planar.faces",
            "groups.designated_central_involution"} <= named
    assert "graphs.connected" not in named       # perfbench/check.py's own helper


def _traced_keys() -> set[tuple[str, str]]:
    """The (module, name) keys of perfbench/spans.py's TRACED table, those
    its ``**{(module, f): ... for f in (...)}`` entries make included."""
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text())
    table = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                 and any(getattr(t, "id", None) == "TRACED" for t in node.targets))
    keys = set()
    for key, value in zip(table.keys, table.values):
        if key is not None:
            keys.add(ast.literal_eval(key))
            continue
        module, _ = value.key.elts
        keys.update((module.value, f) for f in ast.literal_eval(value.generators[0].iter))
    return keys


def _worker_attributes() -> set[tuple[str, str]]:
    """(module, attribute) for each attribute perfbench/worker.py reads off
    a groupflow module it imports."""
    tree = ast.parse((ROOT / "perfbench" / "worker.py").read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name, a.name) for a in node.names
                            if a.name.split(".")[0] == "groupflow")
        elif isinstance(node, ast.ImportFrom) and node.module == "groupflow":
            imported.update((a.asname or a.name, f"groupflow.{a.name}") for a in node.names)
    return {(imported[node.value.id], node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in imported}


def test_benchmark_names_resolve():
    """A traced benchmark run looks up every TRACED key with getattr, and the
    worker calls into groupflow's modules: each such name must exist."""
    traced = _traced_keys()
    read = _worker_attributes()
    assert ("jsonio", "dumps") in traced and ("planar", "faces") in traced
    assert ("groupflow.cli", "run") in read and ("groupflow.groups", "standard_group") in read
    missing = [f"{module}.{name}" for module, name in
               {(f"groupflow.{m}", n) for m, n in traced} | read
               if not hasattr(importlib.import_module(module), name)]
    assert missing == []
