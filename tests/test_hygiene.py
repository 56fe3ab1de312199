"""Source hygiene of the package, checked with the standard library only."""
import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "precboot"
# the package root re-exports what it imports
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str):
    """(line, name) of every name an import binds that the module never
    reads; names in string annotations count as read."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound.setdefault(name, node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound.setdefault(alias.asname or alias.name, node.lineno)
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotation = getattr(node, "annotation", None) \
            or getattr(node, "returns", None)
        if isinstance(annotation, ast.Constant) \
                and isinstance(annotation.value, str):
            used.update(n.id for n in ast.walk(ast.parse(annotation.value))
                        if isinstance(n, ast.Name))
    return sorted((line, name) for name, line in bound.items()
                  if name not in used)


class TestUnusedImports:
    def test_checker_flags_only_unread_names(self):
        source = ("from __future__ import annotations\n"
                  "import os, sys as system\n"
                  "import numpy.linalg\n"
                  "from typing import List, Tuple\n"
                  "def f(x: List[int]) -> 'Tuple[int]':\n"
                  "    return numpy.linalg.norm(x)\n")
        assert unused_imports(source) == [(2, "os"), (2, "system")]

    @pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
    def test_no_unused_imports(self, path):
        assert unused_imports(path.read_text()) == []


# bench/spans.py names these span engines, which kmb_draws replaced; their
# metrics read 0 by design
GONE_SPANS = {"bootstrap.kmb_draws_dual", "bootstrap.kmb_draw_vectors"}


def traced_names(source: str):
    """The dotted package names that a spans.py source times, counts or
    hooks: the values of TIME_METRICS and CALL_METRICS, DRAW_SPANS and the
    keys of HOOKS."""
    tables = {node.targets[0].id: node.value
              for node in ast.parse(source).body
              if isinstance(node, ast.Assign)
              and isinstance(node.targets[0], ast.Name)}
    read = (tables["TIME_METRICS"].values + tables["CALL_METRICS"].values
            + tables["HOOKS"].keys + [tables["DRAW_SPANS"]])
    return {c.value for node in read for c in ast.walk(node)
            if isinstance(c, ast.Constant) and isinstance(c.value, str)}


def unresolved(names, package: Path):
    """The names ``module.function`` or ``module.Class.method`` that no
    module of ``package`` defines."""
    missing = []
    for name in sorted(names):
        module, _, attr = name.partition(".")
        path = package / f"{module}.py"
        defined = set()
        for node in ast.parse(path.read_text()).body if path.is_file() else ():
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            if isinstance(node, ast.ClassDef):
                defined.update(f"{node.name}.{f.name}" for f in node.body
                               if isinstance(f, ast.FunctionDef))
        if attr not in defined:
            missing.append(name)
    return missing


class TestTracedNames:
    # a traced function that is renamed or removed sets its per-layer
    # metric to 0 without an error in the bench
    def test_checker_reads_the_four_tables(self, tmp_path):
        source = ('TIME_METRICS = {"m.a_s": ["m.a", "m.C.b"]}\n'
                  'DRAW_SPANS = ("m.d",)\n'
                  'CALL_METRICS = {"m.calls": "m.e"}\n'
                  'HOOKS = {"m.f": print}\n'
                  'OTHER = {"m.g": "m.h"}\n')
        names = traced_names(source)
        assert names == {"m.a", "m.C.b", "m.d", "m.e", "m.f"}
        (tmp_path / "m.py").write_text(
            "def a():\n    pass\nclass C:\n    def b(self):\n        pass\n"
            "def e():\n    pass\n")
        assert unresolved(names | {"x.y"}, tmp_path) == ["m.d", "m.f", "x.y"]

    def test_every_traced_name_resolves(self):
        spans = PACKAGE.parents[1] / "bench" / "spans.py"
        names = traced_names(spans.read_text())
        assert unresolved(names - GONE_SPANS, PACKAGE) == []


def _read_names(tree, skip=None):
    """The names that a module reads: Name ids, attribute names and the
    names that imports bind from other modules, outside the top-level
    definition ``skip``."""
    read = set()
    for top in tree.body:
        if isinstance(top, (ast.FunctionDef, ast.ClassDef)) \
                and top.name == skip:
            continue
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return read


def unread_definitions(modules, readers, traced=()):
    """``module.name`` of every top-level function and class of the files
    ``modules`` that no code reads: not the other files of ``modules`` or
    ``readers``, not the rest of its own module (its own body does not
    count), and not a part of the dotted names ``traced``."""
    read = {part for name in traced for part in name.split(".")[1:]}
    trees = {path: ast.parse(path.read_text()) for path in modules}
    for path in readers:
        read |= _read_names(ast.parse(path.read_text()))
    others = {path: set().union(*(_read_names(tree) for other, tree
                                  in trees.items() if other != path))
              for path in trees}
    unread = []
    for path, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    and node.name not in read | others[path] \
                    and node.name not in _read_names(tree, skip=node.name):
                unread.append(f"{path.stem}.{node.name}")
    return sorted(unread)


class TestUnreadDefinitions:
    # a definition that only tests read is code kept alive by its tests
    def test_checker_flags_planted_orphans(self, tmp_path):
        (tmp_path / "m.py").write_text(
            "def used():\n    pass\n"
            "def orphan():\n    pass\n"
            "def recursive(k):\n    return recursive(k - 1)\n"
            "def _helper():\n    pass\n"
            "def caller():\n    return _helper()\n"
            "class Traced:\n    pass\n")
        (tmp_path / "n.py").write_text(
            "from m import used\nimport m\nm.caller()\n")
        (tmp_path / "test_m.py").write_text("import m\nm.orphan()\n")
        modules = [tmp_path / "m.py", tmp_path / "n.py"]
        assert unread_definitions(modules, [], {"m.Traced"}) == [
            "m.orphan", "m.recursive"]
        assert unread_definitions(modules, [tmp_path / "test_m.py"]) == [
            "m.Traced", "m.recursive"]

    def test_every_definition_is_read_outside_tests(self):
        bench = PACKAGE.parents[1] / "bench"
        readers = [p for p in bench.glob("*.py")
                   if not p.name.startswith("test_")]
        traced = traced_names((bench / "spans.py").read_text())
        assert unread_definitions(sorted(PACKAGE.glob("*.py")), readers,
                                  traced) == []


def package_imports(source: str):
    """The modules of the package that a module of it imports: relative
    imports, ``from . import m`` and ``from .m import x``, give m."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                found.add(node.module.split(".")[0])
            else:
                found.update(alias.name for alias in node.names)
    return found


class TestScoreReaderLayering:
    # how scores are read (route rule, block size) is decided in longrun
    # alone, so precision holds the score algebra and nothing reads it back
    def test_checker_reads_relative_imports(self):
        source = ("import numpy as np\n"
                  "from . import precision, core as c\n"
                  "from .errors import InvalidInput\n"
                  "from .sub.deep import x\n"
                  "def f():\n    from .nodewise import fit_all\n")
        assert package_imports(source) == {"precision", "core", "errors",
                                           "sub", "nodewise"}
        assert package_imports("from numpy import linalg\n") == set()

    def test_score_readers_import_no_precision(self):
        imports = {name: package_imports((PACKAGE / f"{name}.py").read_text())
                   for name in ("longrun", "bootstrap")}
        assert "precision" not in imports["bootstrap"]
        assert imports["longrun"] <= {"errors"}


FILE_MODULES = {"csv", "json"}


def file_access(source: str):
    """How a module reaches files: ``import csv`` or ``import json`` (also
    ``from csv import ...``), and ``open`` for a call of ``open`` or of an
    ``open`` method."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(f"import {alias.name}" for alias in node.names
                         if alias.name.split(".")[0] in FILE_MODULES)
        elif isinstance(node, ast.ImportFrom) and not node.level \
                and node.module.split(".")[0] in FILE_MODULES:
            found.add(f"import {node.module}")
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id == "open" \
                    or isinstance(func, ast.Attribute) and func.attr == "open":
                found.add("open")
    return found


class TestFileAccessLayering:
    # the library returns objects and cli alone reads and writes files, so
    # the formats of every input and output have one home
    def test_checker_finds_imports_and_open_calls(self):
        source = ("import csv, numpy as np\n"
                  "from json import dump\n"
                  "from . import core\n"
                  "def f(path):\n"
                  "    with open(path) as fh:\n"
                  "        return fh.read()\n")
        assert file_access(source) == {"import csv", "import json", "open"}
        assert file_access("def g(p):\n    return p.open('w')\n") == {"open"}
        assert file_access("import csvkit\nfrom .json import x\n"
                           "opened = len([])\n") == set()

    def test_only_cli_reaches_files(self):
        found = {path.name: file_access(path.read_text())
                 for path in sorted(PACKAGE.glob("*.py"))}
        assert found.pop("cli.py") == {"import csv", "import json", "open"}
        assert {name: f for name, f in found.items() if f} == {}


RNG_CONSTRUCTORS = {"SeedSequence", "default_rng", "Generator", "PCG64",
                    "PCG64DXSM", "MT19937", "Philox", "SFC64", "RandomState"}


def called_names(source: str, names):
    """The ``names`` that a module calls, by name or as an attribute
    (``np.random.default_rng(...)``)."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else \
                func.attr if isinstance(func, ast.Attribute) else None
            if name in names:
                found.add(name)
    return found


def rng_constructions(source: str):
    """The NumPy RNG constructors that a module calls."""
    return called_names(source, RNG_CONSTRUCTORS)


class TestRngConstruction:
    # core seeds every substream by the block hash that its tests check
    # against NumPy's SeedSequence; an RNG made anywhere else bypasses it
    def test_checker_finds_calls_not_annotations(self):
        source = ("import numpy as np\n"
                  "from numpy.random import default_rng\n"
                  "def f(rng: np.random.Generator) -> np.random.Generator:\n"
                  "    a = default_rng(1)\n"
                  "    return np.random.Generator(np.random.PCG64(2))\n")
        assert rng_constructions(source) == {"default_rng", "Generator",
                                             "PCG64"}
        assert rng_constructions("x = rng.generator(3)\n") == set()

    def test_only_core_constructs_rngs(self):
        found = {path.name: rng_constructions(path.read_text())
                 for path in sorted(PACKAGE.glob("*.py"))}
        assert found.pop("core.py") == {"Generator", "PCG64"}
        assert {name: f for name, f in found.items() if f} == {}


def eigh_callers(folder: Path):
    """The modules of ``folder`` that call an ``eigh``."""
    return {path.name for path in sorted(folder.glob("*.py"))
            if called_names(path.read_text(), {"eigh"})}


class TestFactorHome:
    # psd_factor is the one matrix root: the draws are a function of the
    # covariance alone, and a centrosymmetric one splits, only while no
    # other module takes an eigendecomposition of its own
    def test_checker_flags_planted_callers(self, tmp_path):
        (tmp_path / "a.py").write_text(
            "import numpy as np\ndef f(x):\n    return np.linalg.eigh(x)\n")
        (tmp_path / "b.py").write_text(
            "from numpy.linalg import eigh\nvals, vecs = eigh([[1.0]])\n")
        (tmp_path / "c.py").write_text(
            "import numpy as np\nvals = np.linalg.eigvalsh([[1.0]])\n"
            "# np.linalg.eigh in a comment\n")
        assert eigh_callers(tmp_path) == {"a.py", "b.py"}

    def test_only_bootstrap_calls_eigh(self):
        assert eigh_callers(PACKAGE) == {"bootstrap.py"}


def assigned_values(tree, target: str):
    """The values of a module's top-level assignments to ``target``."""
    return [node.value for node in tree.body if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == target
                    for t in node.targets)]


def imported_value(source: str, target: str):
    """(module, name) when a module's one top-level assignment of ``target``
    reads a name that ``from .module import name`` binds, else None (a
    literal, an expression, or no single assignment)."""
    tree = ast.parse(source)
    imports = {alias.asname or alias.name: (node.module, alias.name)
               for node in tree.body
               if isinstance(node, ast.ImportFrom) and node.level
               for alias in node.names}
    values = assigned_values(tree, target)
    if len(values) != 1 or not isinstance(values[0], ast.Name):
        return None
    return imports.get(values[0].id)


class TestKernelWeightLayering:
    # the kernel weights of w_diag and of the multiplier covariance, and the
    # width at which scores are read, are decided in longrun alone
    def test_checkers(self):
        source = ("from . import longrun\n"
                  "from .longrun import kernel_eval, WIDTH as W\n"
                  "CHUNK = W\n"
                  "OTHER = 256\n"
                  "def f(k, u):\n"
                  "    return longrun.kernel_eval(k, u)\n")
        assert called_names(source, {"kernel_eval"}) == {"kernel_eval"}
        assert called_names("from .longrun import kernel_eval\n",
                            {"kernel_eval"}) == set()
        assert imported_value(source, "CHUNK") == ("longrun", "WIDTH")
        assert imported_value(source, "OTHER") is None
        assert imported_value(source + "CHUNK = 8\n", "CHUNK") is None

    def test_only_longrun_evaluates_the_kernel(self):
        callers = {path.name for path in sorted(PACKAGE.glob("*.py"))
                   if called_names(path.read_text(), {"kernel_eval"})}
        assert callers == {"longrun.py"}

    def test_draw_chunk_is_longrun_score_block(self):
        longrun = ast.parse((PACKAGE / "longrun.py").read_text())
        widths = assigned_values(longrun, "SCORE_BLOCK")
        assert len(widths) == 1 and isinstance(widths[0], ast.Constant)
        bootstrap = (PACKAGE / "bootstrap.py").read_text()
        assert imported_value(bootstrap, "DRAW_CHUNK") == \
            ("longrun", "SCORE_BLOCK")


POOL_MODULES = ("concurrent.futures", "logging", "queue")

# run in a fresh interpreter: the pool's modules before and after one call
# of map_ordered on two threads, whose items finish in reverse order
POOL_PROBE = f"""
import json, sys, time
import precboot.cli
from precboot.core import map_ordered
before = [m for m in {POOL_MODULES!r} if m in sys.modules]

def late_first(k):
    time.sleep(0.02 * (3 - k))
    return k * k
results = map_ordered(late_first, range(4), 2)
after = [m for m in {POOL_MODULES!r} if m in sys.modules]
print(json.dumps([before, results, after]))
"""


class TestLazyThreadPool:
    # the thread pool's modules take about 0.6 MB of a process, so they
    # load only when a command runs with --threads > 1
    def test_pool_loads_on_demand_and_keeps_item_order(self):
        probe = subprocess.run(
            [sys.executable, "-c", POOL_PROBE], capture_output=True,
            text=True, timeout=120, cwd=PACKAGE.parent,
            env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)})
        assert probe.returncode == 0, probe.stderr
        before, results, after = json.loads(probe.stdout)
        assert before == []
        assert results == [0, 1, 4, 9]
        assert "concurrent.futures" in after
