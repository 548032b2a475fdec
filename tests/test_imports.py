"""The lazy package namespace and the import boundary of the CLI.

``import lphom`` and the geom and check-unfold commands must run on numpy
alone; the solver modules load scipy when they are first imported.
"""

import ast
import inspect
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lphom

ROOT = Path(__file__).resolve().parents[1]

# every public name with the submodule that defines it, as the package
# exported them when it imported all of its submodules eagerly
HOME = {
    "EffectiveTensorField": "cell_problem",
    "effective_tensor": "cell_problem",
    "solve_cell": "cell_problem",
    "tensor_field": "cell_problem",
    "Partition": "geometry",
    "TransformField": "geometry",
    "UnitCellSpec": "geometry",
    "build_partition": "geometry",
    "indicator_perforated": "geometry",
    "ConvergenceReport": "harness",
    "EpsilonResult": "harness",
    "StudyConfig": "harness",
    "convergence_study": "harness",
    "write_convergence_csv": "harness",
    "Run": "imex",
    "MacroConfig": "macro",
    "assemble_macro": "macro",
    "macro_nodes": "macro",
    "run_macro": "macro",
    "MicroConfig": "micro",
    "build_micro_grid": "micro",
    "run_micro": "micro",
    "SCENARIO_NAMES": "scenarios",
    "CoefficientSuite": "scenarios",
    "Scenario": "scenarios",
    "get_scenario": "scenarios",
    "GammaQuadrature": "unfolding",
    "check_boundary_identity": "unfolding",
    "check_integration_identity": "unfolding",
    "grid_function_from_callable": "unfolding",
    "interpolate_Q": "unfolding",
    "lattice_pwc_field": "unfolding",
    "local_average": "unfolding",
    "lts_pairing": "unfolding",
    "remainder_R": "unfolding",
    "unfold": "unfolding",
    "unfold_boundary": "unfolding",
}


def run_python(code: str) -> dict:
    """Run code in a fresh interpreter on the source tree; its last stdout
    line is JSON."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


class TestLazyNamespace:
    def test_all_lists_the_public_names(self):
        assert len(HOME) == 37
        assert sorted(lphom.__all__) == sorted(HOME)

    @pytest.mark.parametrize("name", sorted(HOME))
    def test_name_is_the_home_object(self, name):
        module = __import__(f"lphom.{HOME[name]}", fromlist=[name])
        assert getattr(lphom, name) is getattr(module, name)

    def test_dir(self):
        names = dir(lphom)
        assert "__all__" in names
        assert set(HOME) <= set(names)

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            lphom.no_such_name
        assert not hasattr(lphom, "no_such_name")

    def test_submodules_still_import_by_name(self):
        from lphom import cell_problem, geometry
        assert cell_problem.__name__ == "lphom.cell_problem"
        assert geometry.__name__ == "lphom.geometry"

    def test_star_import_binds_every_name(self):
        out = run_python(
            "import json\n"
            "ns = {}\n"
            "exec('from lphom import *', ns)\n"
            "print(json.dumps(sorted(k for k in ns if k != '__builtins__')))\n")
        assert out == sorted(HOME)


class TestImportBoundary:
    def test_unfold_path_runs_without_scipy(self, tmp_path):
        out = run_python(
            "import json, sys\n"
            "import lphom, lphom.cli\n"
            "before = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            f"outdir = {str(tmp_path)!r}\n"
            "codes = [lphom.cli.main(['check-unfold', '--scenario', 'plywood2d',\n"
            "                         '--eps', '1/8', '--outdir', outdir]),\n"
            "         lphom.cli.main(['geom', '--scenario', 'plywood2d',\n"
            "                         '--eps', '1/8', '--outdir', outdir])]\n"
            "after = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "import lphom.harness\n"
            "print(json.dumps({'before': before, 'after': after, 'codes': codes,\n"
            "                  'harness': 'scipy.sparse.linalg' in sys.modules}))\n")
        assert out["codes"] == [0, 0]
        assert out["before"] == []
        assert out["after"] == []
        # the converge set-up still pays for the solver stack on import
        assert out["harness"] is True
        assert (tmp_path / "check_unfold.csv").exists()
        assert (tmp_path / "geom.csv").exists()

    def test_macro_does_not_load_the_cell_problem(self):
        # the macro model takes the tensor field as its input
        out = run_python(
            "import json, sys\n"
            "import lphom.macro\n"
            "print(json.dumps('lphom.cell_problem' in sys.modules))\n")
        assert out is False


class TestGeometryArguments:
    """The partition carries the frozen D_n, K_n, and the Γ quadrature
    carries the unit cell: no routine takes either twice."""

    @staticmethod
    def kinds():
        """{qualified name: set of argument kinds} of every public function
        of geometry and unfolding; a parameter counts by name and by its
        annotation."""
        from lphom import geometry, unfolding
        aliases = {"Partition": "partition", "TransformField": "transform",
                   "UnitCellSpec": "cell", "GammaQuadrature": "quad"}
        out = {}
        for module in (geometry, unfolding):
            for name, obj in vars(module).items():
                if (name.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != module.__name__):
                    continue
                params = inspect.signature(obj).parameters.values()
                out[f"{module.__name__}.{name}"] = (
                    {p.name for p in params}
                    | {aliases.get(str(p.annotation), "") for p in params})
        return out

    def test_the_walk_reaches_the_unexported_routines(self):
        assert {"lphom.unfolding.norm_unfold_minus_identity",
                "lphom.unfolding.norm_unfold_of_lp_minus_psi",
                "lphom.geometry.locate_cells",
                "lphom.geometry.indicator_perforated"} <= set(self.kinds())

    def test_no_routine_takes_a_partition_and_a_transform(self):
        assert [name for name, k in self.kinds().items()
                if {"partition", "transform"} <= k] == []

    def test_no_routine_takes_a_cell_and_a_quadrature(self):
        assert [name for name, k in self.kinds().items()
                if {"cell", "quad"} <= k] == []


def unread_parameters(tree: ast.AST) -> list:
    """"line name(param)" for every parameter its function never reads.

    The _cmd_* handlers share one signature, and a lambda that reads none
    of its parameters is a constant map; both are exempt.
    """
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            continue
        a = node.args
        params = {p.arg for p in [*a.posonlyargs, *a.args, *a.kwonlyargs,
                                  a.vararg, a.kwarg] if p is not None}
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        name = getattr(node, "name", "<lambda>")
        if name.startswith("_cmd_") or (isinstance(node, ast.Lambda)
                                         and not params & read):
            continue
        out += [f"{node.lineno} {name}({p})" for p in sorted(params - read)]
    return out


class TestParametersAreRead:
    """No function of the package takes an argument that changes nothing."""

    def test_every_parameter_is_read(self):
        found = []
        for path in sorted((ROOT / "src" / "lphom").glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            found += [f"{path.name}:{u}" for u in unread_parameters(tree)]
        assert found == []

    def test_the_scan_flags_an_unread_parameter(self):
        tree = ast.parse(
            "def f(a, b, *rest, c=1, **kw):\n"
            "    a = 2\n"
            "    return c, kw, lambda y: 0\n"
            "def _cmd_x(vals, args):\n"
            "    return vals\n"
            "def g(x):\n"
            "    def inner():\n"
            "        return x\n"
            "    return inner\n"
            "k = lambda x: x + 1\n")
        assert unread_parameters(tree) == ["1 f(a)", "1 f(b)", "1 f(rest)"]


def private_definitions(tree: ast.Module) -> list:
    """(name, statement) of every private module-level function, class and
    constant; dunder names are the language's, not the module's."""
    out = []
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names = [stmt.name]
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = (stmt.targets if isinstance(stmt, ast.Assign)
                       else [stmt.target])
            names = [n.id for t in targets for n in ast.walk(t)
                     if isinstance(n, ast.Name)]
        else:
            continue
        out += [(name, stmt) for name in names
                if name.startswith("_") and not name.startswith("__")]
    return out


def referenced_names(stmt: ast.AST) -> set:
    """Names read in stmt: loaded names, attributes and imported names."""
    out = set()
    for n in ast.walk(stmt):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.name)
    return out


def unreferenced_private_names(trees: dict) -> list:
    """"file name" for every private module-level definition that no
    top-level statement of any module other than its own definitions
    reads."""
    reads = [(stmt, referenced_names(stmt))
             for t in trees.values() for stmt in t.body]
    out = []
    for f, t in trees.items():
        pairs = private_definitions(t)
        for name in dict.fromkeys(n for n, _ in pairs):
            own = {id(stmt) for n, stmt in pairs if n == name}
            if not any(name in names for stmt, names in reads
                       if id(stmt) not in own):
                out.append(f"{f} {name}")
    return out


class TestPrivateNamesAreUsed:
    """No private function, class or constant of the package is left
    behind by the code that used it."""

    def test_every_private_name_is_referenced(self):
        trees = {p.name: ast.parse(p.read_text(encoding="utf-8"))
                 for p in sorted((ROOT / "src" / "lphom").glob("*.py"))}
        assert unreferenced_private_names(trees) == []

    def test_the_scan_flags_an_unreferenced_name(self):
        trees = {
            "a.py": ast.parse(
                "_USED = 1\n"
                "_LEFT = 2\n"
                "_LEFT = _LEFT + 1\n"
                "def _recursive(n):\n"
                "    return _recursive(n - 1)\n"
                "class _Imported:\n"
                "    pass\n"
                "def _attr():\n"
                "    pass\n"
                "__all__ = []\n"
                "def f():\n"
                "    return _USED\n"),
            "b.py": ast.parse(
                "from a import _Imported\n"
                "import a\n"
                "a._attr()\n"),
        }
        assert unreferenced_private_names(trees) == ["a.py _LEFT",
                                                     "a.py _recursive"]


def private_attributes(tree: ast.Module) -> set:
    """Private names a module defines: its functions, classes and methods,
    and every name and attribute it assigns; dunder names are the
    language's."""
    out = set()
    for n in ast.walk(tree):
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef,
                          ast.ClassDef)):
            out.add(n.name)
        elif isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store):
            out.add(n.id)
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store):
            out.add(n.attr)
    return {name for name in out
            if name.startswith("_") and not name.startswith("__")}


def foreign_private_reads(trees: dict) -> list:
    """"file:line obj._name" for every read of a private attribute, on an
    object other than self, that another module defines."""
    defined = {f: private_attributes(t) for f, t in trees.items()}
    out = []
    for f, t in trees.items():
        foreign = set().union(*(d for g, d in defined.items() if g != f))
        out += [f"{f}:{n.lineno} {ast.unparse(n)}" for n in ast.walk(t)
                if isinstance(n, ast.Attribute)
                and isinstance(n.ctx, ast.Load) and n.attr in foreign
                and not (isinstance(n.value, ast.Name)
                         and n.value.id == "self")]
    return out


class TestPrivateAttributesStayHome:
    """No module reads another module's private state: what one module
    needs of another is public and documented."""

    def test_no_module_reads_a_foreign_private_attribute(self):
        trees = {p.name: ast.parse(p.read_text(encoding="utf-8"))
                 for p in sorted((ROOT / "src" / "lphom").glob("*.py"))}
        assert foreign_private_reads(trees) == []

    def test_the_scan_flags_a_planted_read(self):
        trees = {
            "a.py": ast.parse(
                "class P:\n"
                "    def __init__(self):\n"
                "        self._rows = []\n"
                "        self.__dict__.clear()\n"
                "    def _slots(self):\n"
                "        return self._rows\n"
                "def own(p):\n"
                "    return p._rows, p._slots()\n"),
            "b.py": ast.parse(
                "def peek(p, q):\n"
                "    _local = p._rows\n"
                "    return q.part._slots(), p._unknown, p.__dict__\n"
                "class Q:\n"
                "    def f(self):\n"
                "        return self._rows\n"),
        }
        assert foreign_private_reads(trees) == ["b.py:2 p._rows",
                                                "b.py:3 q.part._slots"]


def dataclass_fields(tree: ast.Module) -> list:
    """(class name, field name) of every field of a dataclass, frozen or
    not; ClassVar annotations are class constants, not fields."""
    out = []
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        is_dataclass = any(
            getattr(d.func if isinstance(d, ast.Call) else d, "id", None)
            == "dataclass" for d in cls.decorator_list)
        out += [(cls.name, stmt.target.id) for stmt in cls.body
                if is_dataclass and isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)
                and "ClassVar" not in ast.unparse(stmt.annotation)]
    return out


# dataclass fields kept with no reader yet, each for the reader it waits on
UNREAD_FIELDS_KEPT = {
    # the L-infinity barrier and the mass ledger of a run are facts of the
    # study trace (ROADMAP item 2)
    "Run.barrier_M",
    "Run.barrier_B",
    "Run.ledger_max",
    # the acceptance tests read the macro run and the finest micro run of a
    # study instead of solving them again
    "ConvergenceReport.macro_run",
    "ConvergenceReport.micro_runs",
}


def unread_fields(trees: dict, readers: list) -> list:
    """"file Class.field" for every dataclass field of trees that no
    attribute load (obj.field) in trees or readers reads, apart from
    UNREAD_FIELDS_KEPT.

    Matching is by name. A field's declaration, and the keyword arguments
    that set it, are no reads; a read in the class's own methods
    (self.field) is one, as CoefficientSuite.p reads kappa1 to kappa3.
    """
    loads = {n.attr for t in [*trees.values(), *readers] for n in ast.walk(t)
             if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    return [f"{f} {c}.{name}" for f, t in trees.items()
            for c, name in dataclass_fields(t)
            if name not in loads and f"{c}.{name}" not in UNREAD_FIELDS_KEPT]


def package_and_benchmark_trees():
    """The parsed modules of the package and of the benchmark harness."""
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8"))
             for p in sorted((ROOT / "src" / "lphom").glob("*.py"))}
    readers = [ast.parse(p.read_text(encoding="utf-8"))
               for p in sorted((ROOT / "perfbench").glob("*.py"))]
    assert trees and readers
    return trees, readers


class TestDataclassFieldsAreRead:
    """No dataclass of the package keeps a value that neither the package
    nor the benchmark harness reads."""

    def test_every_field_is_read(self):
        assert unread_fields(*package_and_benchmark_trees()) == []

    def test_the_kept_fields_exist(self):
        trees, _ = package_and_benchmark_trees()
        defined = {f"{c}.{name}" for t in trees.values()
                   for c, name in dataclass_fields(t)}
        assert UNREAD_FIELDS_KEPT <= defined

    def test_the_scan_flags_a_planted_field(self):
        # a field of a mutable dataclass that nothing reads
        trees, readers = package_and_benchmark_trees()
        [report] = [n for n in ast.walk(trees["harness.py"])
                    if isinstance(n, ast.ClassDef)
                    and n.name == "ConvergenceReport"]
        report.body += ast.parse("total_drop: float = 0.0\n").body
        assert unread_fields(trees, readers) == [
            "harness.py ConvergenceReport.total_drop"]

    def test_the_scan_flags_an_unread_field(self):
        trees = {
            "a.py": ast.parse(
                "from dataclasses import dataclass\n"
                "from typing import ClassVar\n"
                "@dataclass(frozen=True)\n"
                "class T:\n"
                "    D: object\n"
                "    bounds: tuple = (0.5, 2.0)\n"
                "    scale: float = 1.0\n"
                "    unit: ClassVar[float] = 1.0\n"
                "    def area(self):\n"
                "        return self.scale\n"
                "@dataclass\n"
                "class Mutable:\n"
                "    kept: int = 0\n"
                "    read: int = 0\n"
                "class Plain:\n"
                "    size: int = 0\n"
                "t = T(D=1, bounds=(1.0, 1.0))\n"),
            "b.py": ast.parse("def use(t, m):\n    return t.D, m.read\n"),
        }
        assert unread_fields(trees, []) == ["a.py T.bounds",
                                            "a.py Mutable.kept"]


def public_methods(tree: ast.Module) -> list:
    """(class name, name) of every public method and property of every
    class; a name with a leading underscore is not public."""
    return [(cls.name, stmt.name) for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef) for stmt in cls.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not stmt.name.startswith("_")]


# public methods kept with no reader yet, each for the open item that reads it
UNREAD_METHODS_KEPT = {
    # the two-scale limit of the ligand gradient needs the cell correctors
    # (ROADMAP item 11)
    "CellSolution.correctors",
    # the leftover measure |Lambda^eps| of the micro partition is the first
    # surface-to-volume diagnostic (ROADMAP item 1 step 1)
    "Partition.lambda_measure",
}


def unread_methods(trees: dict, readers: list) -> list:
    """"file Class.method" for every public method and property of trees
    that no attribute load (obj.method) in trees or readers reads, apart
    from UNREAD_METHODS_KEPT.

    Matching is by name, as in unread_fields: a read on any object, of any
    class, counts, and a method's own definition does not.
    """
    loads = {n.attr for t in [*trees.values(), *readers] for n in ast.walk(t)
             if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    return [f"{f} {c}.{name}" for f, t in trees.items()
            for c, name in public_methods(t)
            if name not in loads and f"{c}.{name}" not in UNREAD_METHODS_KEPT]


class TestPublicMethodsAreRead:
    """No class of the package keeps a public method or property that
    neither the package nor the benchmark harness calls: a name that only
    tests read is an API kept for the tests."""

    def test_every_public_method_is_read(self):
        assert unread_methods(*package_and_benchmark_trees()) == []

    def test_the_kept_names_exist(self):
        trees, _ = package_and_benchmark_trees()
        defined = {f"{c}.{name}" for t in trees.values()
                   for c, name in public_methods(t)}
        assert UNREAD_METHODS_KEPT <= defined

    def test_the_scan_flags_a_re_added_copy_with(self):
        trees, readers = package_and_benchmark_trees()
        [grid] = [n for n in ast.walk(trees["unfolding.py"])
                  if isinstance(n, ast.ClassDef) and n.name == "GridFunction"]
        grid.body += ast.parse(
            "def copy_with(self, values):\n"
            "    return GridFunction(self.lo, self.hi, self.h, values)\n").body
        assert unread_methods(trees, readers) == [
            "unfolding.py GridFunction.copy_with"]

    def test_the_scan_flags_an_unread_method(self):
        trees = {
            "a.py": ast.parse(
                "class P:\n"
                "    def __init__(self):\n"
                "        self.rows = self._count()\n"
                "    def _count(self):\n"
                "        return 0\n"
                "    @property\n"
                "    def side(self):\n"
                "        return 1.0\n"
                "    @property\n"
                "    def size(self):\n"
                "        return 2\n"
                "    def blocks(self):\n"
                "        return []\n"
                "    @staticmethod\n"
                "    def build():\n"
                "        return P()\n"
                "def use(p):\n"
                "    return p.size, P.build\n"),
            "b.py": ast.parse("def run(p):\n    return p.blocks()\n"),
        }
        assert unread_methods(trees, []) == ["a.py P.side"]


def public_definitions(tree: ast.Module) -> list:
    """(name, statement) of every public module-level function and class."""
    return [(stmt.name, stmt) for stmt in tree.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            and not stmt.name.startswith("_")]


def loaded_names(stmt: ast.AST) -> set:
    """Names and attributes that stmt reads; an import is no read."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(stmt)
            if isinstance(n, (ast.Name, ast.Attribute))
            and isinstance(n.ctx, ast.Load)}


# public module-level names kept with no reader and no export: the
# paper's two unfolding norms, which tests/test_acceptance.py runs and the
# two-scale limit of ROADMAP item 11 will read
UNREAD_NAMES_KEPT = {"norm_unfold_minus_identity",
                     "norm_unfold_of_lp_minus_psi"}


def unread_public_names(trees: dict, readers: list, exported) -> list:
    """"file name" for every public module-level function and class of
    trees that no top-level statement of trees or readers reads outside
    its own definition, apart from the exported names and
    UNREAD_NAMES_KEPT."""
    reads = [(stmt, loaded_names(stmt))
             for t in [*trees.values(), *readers] for stmt in t.body]
    return [f"{f} {name}" for f, t in trees.items()
            for name, own in public_definitions(t)
            if name not in exported and name not in UNREAD_NAMES_KEPT
            and not any(name in names for stmt, names in reads
                        if stmt is not own)]


class TestPublicNamesAreRead:
    """No module of the package keeps a public function or class that
    neither the package nor the benchmark harness reads, unless the
    package exports it."""

    def test_every_public_name_is_read_or_exported(self):
        trees, readers = package_and_benchmark_trees()
        assert unread_public_names(trees, readers, lphom.__all__) == []

    def test_the_kept_names_exist_and_are_not_exported(self):
        trees, _ = package_and_benchmark_trees()
        defined = {name for t in trees.values()
                   for name, _ in public_definitions(t)}
        assert UNREAD_NAMES_KEPT <= defined - set(lphom.__all__)

    def test_the_scan_flags_a_planted_unread_function(self):
        trees, readers = package_and_benchmark_trees()
        trees["unfolding.py"].body += ast.parse(
            "def planted_norm(partition):\n"
            "    return planted_norm(partition)\n"
            "class PlantedGrid:\n"
            "    pass\n").body
        readers = [*readers, ast.parse("from lphom.unfolding import "
                                       "PlantedGrid\n")]
        assert unread_public_names(trees, readers, lphom.__all__) == [
            "unfolding.py planted_norm", "unfolding.py PlantedGrid"]


def defaulted_parameters(tree: ast.Module) -> list:
    """(call name, parameter, positional index or None) of every defaulted
    parameter of every module-level function and of every method of a
    module-level class. A method's self or cls takes no index, and
    Class(...) is the call of Class.__init__; a keyword-only parameter has
    no positional index. Nested functions are out of scope."""
    defs = []
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            defs.append((stmt.name, stmt, 0))
        elif isinstance(stmt, ast.ClassDef):
            for d in stmt.body:
                if isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    static = any(getattr(dec, "id", None) == "staticmethod"
                                 for dec in d.decorator_list)
                    name = stmt.name if d.name == "__init__" else d.name
                    defs.append((name, d, 0 if static else 1))
    out = []
    for name, d, skip in defs:
        a = d.args
        positional = [*a.posonlyargs, *a.args]
        first = len(positional) - len(a.defaults)
        out += [(name, p.arg, k - skip)
                for k, p in enumerate(positional) if k >= first]
        out += [(name, p.arg, None)
                for p, v in zip(a.kwonlyargs, a.kw_defaults) if v is not None]
    return out


def call_signatures(trees: list) -> dict:
    """{called name: [(positional count, keyword names)]} of every call in
    trees, by the name of the called function or attribute. A call with
    *args or **kwargs sets every parameter: its count is infinite, or its
    keywords are None."""
    out: dict = {}
    for t in trees:
        for n in ast.walk(t):
            if not isinstance(n, ast.Call):
                continue
            f = n.func
            name = (f.id if isinstance(f, ast.Name) else
                    f.attr if isinstance(f, ast.Attribute) else None)
            if name is None:
                continue
            count = (math.inf if any(isinstance(x, ast.Starred)
                                     for x in n.args) else len(n.args))
            kw = ({k.arg for k in n.keywords}
                  if all(k.arg is not None for k in n.keywords) else None)
            out.setdefault(name, []).append((count, kw))
    return out


# defaulted parameters that no call of the package or the benchmark
# harness sets, each with its reason: the paper's local average and
# micro-macro remainder, which only tests run until the two-scale limit of
# ROADMAP item 11 reads them, as UNREAD_NAMES_KEPT
DEFAULTS_UNSET_KEPT = {
    "local_average(m_y)",
    "remainder_R(m_y)",
    "remainder_R(points_per_axis)",
    "remainder_R(grad)",
}


def unset_defaults(trees: dict, readers: list) -> list:
    """"file name(param)" for every defaulted parameter of trees that no
    call in trees or readers sets, by keyword or by position, apart from
    DEFAULTS_UNSET_KEPT. Calls are matched by name, as in the other
    scans."""
    calls = call_signatures([*trees.values(), *readers])

    def is_set(name, param, index):
        return any(kw is None or param in kw
                   or (index is not None and index < count)
                   for count, kw in calls.get(name, ()))

    return [f"{f} {name}({param})" for f, t in trees.items()
            for name, param, index in defaulted_parameters(t)
            if not is_set(name, param, index)
            and f"{name}({param})" not in DEFAULTS_UNSET_KEPT]


class TestDefaultsAreSet:
    """No function or method of the package has a default that neither the
    package nor the benchmark harness ever overrides: an option that only
    tests set is a constant."""

    def test_every_default_is_set_by_a_caller(self):
        assert unset_defaults(*package_and_benchmark_trees()) == []

    def test_the_kept_defaults_exist(self):
        trees, _ = package_and_benchmark_trees()
        defined = {f"{name}({param})" for t in trees.values()
                   for name, param, _ in defaulted_parameters(t)}
        assert DEFAULTS_UNSET_KEPT <= defined

    def test_the_scan_flags_a_planted_default(self):
        trees, readers = package_and_benchmark_trees()
        trees["unfolding.py"].body += ast.parse(
            "def planted_sum(values, p=2.0):\n"
            "    return planted_sum(values)\n").body
        assert unset_defaults(trees, readers) == [
            "unfolding.py planted_sum(p)"]

    def test_the_scan_flags_an_unset_default(self):
        trees = {
            "a.py": ast.parse(
                "def f(a, b=1, c=2, *, d=3, e=4):\n"
                "    def inner(z=0):\n"
                "        return z\n"
                "    return inner()\n"
                "class P:\n"
                "    def __init__(self, x, y=0, z=0):\n"
                "        self.x = x\n"
                "    def m(self, u=1, v=2):\n"
                "        return u\n"
                "    @staticmethod\n"
                "    def s(w=1):\n"
                "        return w\n"
                "def g(q=1):\n"
                "    return q\n"
                "def h(k=1):\n"
                "    return k\n"),
            "b.py": ast.parse(
                "f(0, 1, e=5)\n"
                "p = P(1, 2)\n"
                "p.m(1)\n"
                "P.s(3)\n"
                "g(*[])\n"
                "h(**{})\n"),
        }
        assert unset_defaults(trees, []) == [
            "a.py f(c)", "a.py f(d)", "a.py P(z)", "a.py m(v)"]
