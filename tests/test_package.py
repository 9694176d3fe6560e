"""Limits on the package's own source."""

from __future__ import annotations

import ast
import importlib
import os
import re
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest

import fedcharge

# CPython's parser allocates about 0.5 MB more to compile a module of more
# tokens than this, so a run that compiles the package from source (as with
# PYTHONDONTWRITEBYTECODE=1) peaks that much higher.
MAX_TOKENS = 8_192

MODULES = sorted(Path(fedcharge.__file__).parent.glob("*.py"))


def tokens(path: Path) -> int:
    """A module's tokens, comments, blank lines and the encoding excluded."""
    skip = {tokenize.COMMENT, tokenize.NL, tokenize.ENCODING}
    with open(path, "rb") as fh:
        return sum(token.type not in skip for token in tokenize.tokenize(fh.readline))


def test_comments_and_blank_lines_do_not_count(tmp_path):
    bare, commented = tmp_path / "bare.py", tmp_path / "commented.py"
    bare.write_text("x = (1,\n     2)\n")
    commented.write_text("# a comment\n\nx = (1,  # another\n\n     2)\n")
    assert tokens(bare) == tokens(commented) == 9  # x = ( 1 , 2 ) NEWLINE ENDMARKER


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_module_is_under_the_parser_step(path):
    assert tokens(path) < MAX_TOKENS


def imports(path: Path):
    """(module, name) of each import in a module: ("csv", None) for import
    csv, (".ingest", "x") for from .ingest import x."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from ((alias.name, None) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            yield from ((module, alias.name) for alias in node.names)


def importers(*names: str) -> list[str]:
    """The modules that import any of the named top-level modules."""
    return [path.name for path in MODULES
            if any(module.split(".")[0] in names for module, _ in imports(path))]


def test_only_csvio_imports_csv():
    assert importers("csv") == ["csvio.py"]


def test_only_sessions_imports_datetime():
    """Times are int epoch seconds everywhere; sessions.py alone parses a
    stamp that is not canonical and turns the window's minutes into seconds."""
    assert importers("datetime") == ["sessions.py"]


def names_from(path: Path, source: str) -> set[str]:
    """The names a module takes from the module source (os, or the package's
    pool): x for source.x or from source import x (from .source too)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return ({node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
             and isinstance(node.value, ast.Name) and node.value.id == source}
            | {name for module, name in imports(path)
               if module.lstrip(".") in (source, f"fedcharge.{source}") and name})


def test_os_names_finds_attributes_and_imports(tmp_path):
    """names_from, for os and for the package's pool."""
    module = tmp_path / "module.py"
    module.write_text("import os\nfrom os import waitpid\npid = os.fork()\nos.path.join\n"
                      "from . import pool\nfrom .pool import CannotFork\n"
                      "from fedcharge.pool import ClientPool\nn = pool.usable_cpus()\n")
    assert names_from(module, "os") == {"fork", "path", "waitpid"}
    assert names_from(module, "pool") == {"CannotFork", "ClientPool", "usable_cpus"}


def test_only_pool_forks():
    """pool.py is the one fork layer: it alone forks and reaps the workers
    and sets their heap and BLAS threads. No module imports multiprocessing."""
    assert importers("multiprocessing") == []
    assert importers("ctypes") == ["pool.py"]
    assert [path.name for path in MODULES
            if names_from(path, "os") & {"fork", "waitpid"}] == ["pool.py"]


def test_only_pool_decides_whether_to_fork():
    """The host's CPUs and BLAS threads are pool.py's to check: no other
    module takes usable_cpus or blas_threads from it. Two modules fork through
    it: ingest's time-series parse and federation's FedAvg pool, so a new
    fork user has to be added here."""
    assert [path.name for path in MODULES
            if names_from(path, "pool") & {"usable_cpus", "blas_threads"}] == []
    assert {path.name: names_from(path, "pool") for path in MODULES
            if names_from(path, "pool")} == {
        "ingest.py": {"start_job"},
        "federation.py": {"CannotFork", "ClientPool", "serial_training"},
    }


def definitions(path: Path) -> set[str]:
    """The functions and classes a module defines, methods and nested ones
    included, dunder methods excepted."""
    return {node.name for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))}


def references(path: Path) -> set[str]:
    """The names a module uses: each name, attribute and imported name."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return ({node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
            | {name for _, name in imports(path) if name})


def test_definitions_finds_what_a_module_defines_and_references_what_it_uses(tmp_path):
    module = tmp_path / "module.py"
    module.write_text("from .pool import start_job\nclass A:\n    def __init__(self): pass\n"
                      "    def run(self): return helper(self.size)\n"
                      "def helper(x):\n    def inner(): pass\n    return x\n")
    assert definitions(module) == {"A", "run", "helper", "inner"}
    assert references(module) == {"start_job", "helper", "self", "size", "x"}


# Each name here is defined for a caller that does not exist yet.
NOT_YET_CALLED = {"load_checkpoint"}  # reproduces a run's predictions from its checkpoint


def test_every_definition_is_used_in_the_package():
    """A function or class that no module refers to is dead code, or a second
    implementation that only tests call: it belongs in tests/."""
    used = set().union(*map(references, MODULES))
    dead = {name for path in MODULES for name in definitions(path)} - used
    assert dead == NOT_YET_CALLED


def test_no_module_imports_a_private_name_of_another():
    private = [(path.name, module, name) for path in MODULES for module, name in imports(path)
               if module.startswith((".", "fedcharge")) and name and name.startswith("_")
               and not name.startswith("__")]
    assert private == []


# ---------------------------------------------------------------------------
# The lazy package: `import fedcharge` loads nothing until a name is used.

INIT = Path(fedcharge.__file__)
SUBMODULES = ("csvio", "features", "federation", "heterogeneity", "ingest", "metrics",
              "models", "partition", "seeding", "sessions")


def fresh(code: str) -> str:
    """The stdout of code run in a fresh interpreter that imports this checkout."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(INIT.resolve().parents[1]), os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_loads_no_submodule_and_no_numpy():
    loaded = fresh("import sys, fedcharge\n"
                   "print(*sorted(m for m in sys.modules if m.split('.')[0] in "
                   "('numpy', 'fedcharge')))").split()
    assert loaded == ["fedcharge"]


def top_level_definers(name: str) -> list[str]:
    """The package modules whose top level defines name."""
    def defined(node):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            return {node.name}
        targets = node.targets if isinstance(node, ast.Assign) else (
            [node.target] if isinstance(node, ast.AnnAssign) else [])
        return {t.id for t in targets if isinstance(t, ast.Name)}

    return [path.stem for path in MODULES if path != INIT and any(
        name in defined(node) for node in ast.parse(path.read_text(encoding="utf-8")).body)]


@pytest.mark.parametrize("name", [n for n in fedcharge.__all__ if n != "__version__"])
def test_each_public_name_is_its_modules_object(name):
    definers = top_level_definers(name)
    assert len(definers) == 1, definers
    module = importlib.import_module(f"fedcharge.{definers[0]}")
    assert getattr(fedcharge, name) is getattr(module, name)


def test_star_import_binds_every_public_name():
    bound = fresh("names = set(dir())\nfrom fedcharge import *\n"
                  "print(*set(dir()) - names - {'names'})").split()
    assert sorted(bound) == sorted(fedcharge.__all__)


def test_submodules_are_attributes_after_a_bare_import():
    code = ("import fedcharge\nprint(fedcharge.ingest.parse_timeseries.__module__)\n"
            f"print(*(getattr(fedcharge, m).__name__ for m in {SUBMODULES!r}))")
    first, names = fresh(code).splitlines()
    assert first == "fedcharge.ingest"
    assert names.split() == [f"fedcharge.{m}" for m in SUBMODULES]


def test_dir_covers_the_public_names():
    assert set(fedcharge.__all__) <= set(dir(fedcharge))


@pytest.mark.parametrize("name", ["no_such_name", "pool.x", ".x", ""])
def test_an_unknown_name_is_an_attribute_error_naming_it(name):
    with pytest.raises(AttributeError, match=f"has no attribute {re.escape(repr(name))}"):
        getattr(fedcharge, name)


def test_a_submodule_missing_its_own_import_is_not_masked():
    """numpy missing surfaces as numpy missing, not as a missing attribute."""
    out = fresh("import sys\nsys.modules['numpy'] = None\nimport fedcharge\n"
                "for name in ('features', 'mae'):\n"
                "    try:\n        getattr(fedcharge, name)\n"
                "    except ModuleNotFoundError as exc:\n        print(name, exc.name)")
    assert out.splitlines() == ["features numpy", "mae numpy"]


def test_init_imports_neither_numpy_nor_a_submodule():
    """__getattr__ imports them through importlib; an import statement in
    __init__.py would load them with the package."""
    assert [module for module, _ in imports(INIT)
            if module.startswith(".") or module.split(".")[0] in ("numpy", "fedcharge")] == []
