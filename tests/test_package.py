"""Package surface: what ``gridfreq`` exports, and the names the benchmark uses.

Covers:
 - the package ``__all__`` is the union of its modules' ``__all__`` lists,
   with no name twice, each bound to its module's object
 - every ``gridfreq`` name that ``bench/*.py`` imports resolves, and the
   names its tracing shims replace are still bound where it replaces them
   (the bench files are read as source, never run)
 - every trajectory attribute that ``bench/*.py`` reads off a ``traj``
   resolves on a ``simulate`` result
 - the capacity strategies the benchmark cycles are sweeps' capacity
   controllers, in order
 - ``gridfreq.simulate`` is the function, bound over the submodule, which
   ``from gridfreq.simulate import ...`` still reaches
 - every ``<name> must be > 0 / >= 0, got <value>`` message is written once,
   in ``model.require_bound``
 - ``cli.main`` alone prints ``error:`` lines and returns the error exit
   codes, and no function of ``cli.py`` signals an error by returning None
 - ``cli._write_output`` alone opens a file in ``cli.py``
 - ``lti._modes`` alone takes derivatives of polynomials in ``lti.py``, so the
   oracle's partial fractions are written once
 - ``simulate`` and ``simulate._storage_maxima`` alone step a run in
   ``simulate.py``, once each, so a trajectory row is never sampled by
   stepping its run again
 - ``_sample_runs`` takes no rows to sample, and outside it one helper,
   ``_sample_rows``, alone writes the row product over recorded chunks
"""

import ast
import importlib
import inspect
import pkgutil
import re
import sys
import types
from pathlib import Path

import numpy as np

import gridfreq

BENCH = Path(__file__).resolve().parent.parent / "bench"
SRC = Path(__file__).resolve().parent.parent / "src" / "gridfreq"

# Names the benchmark's tracing shims and worker replace on these modules.
SHIMMED = {
    "gridfreq.cli": ("load_scenario", "simulate", "extract_metrics", "write_trajectory_csv"),
    "gridfreq.sweeps": ("simulate", "extract_metrics", "mv_min_exact", "design_droop_from_target"),
}


def test_package_exports_the_union_of_module_exports():
    modules = []
    for info in pkgutil.iter_modules(gridfreq.__path__):
        if info.name != "__main__":
            module = importlib.import_module(f"gridfreq.{info.name}")
            if hasattr(module, "__all__"):
                modules.append(module)
    union = [name for module in modules for name in module.__all__]
    assert len(union) == len(set(union)), sorted(n for n in union if union.count(n) > 1)
    assert len(gridfreq.__all__) == len(set(gridfreq.__all__))
    assert set(gridfreq.__all__) == set(union)
    for module in modules:
        for name in module.__all__:
            assert getattr(gridfreq, name) is getattr(module, name), (module.__name__, name)


def _bench_imports():
    """(module, name or None, file) for every gridfreq import in bench/*.py."""
    found = []
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 0 and (node.module or "").split(".")[0] == "gridfreq":
                found += [(node.module, alias.name, path.name) for alias in node.names]
            elif isinstance(node, ast.Import):
                found += [(a.name, None, path.name) for a in node.names if a.name.split(".")[0] == "gridfreq"]
    return found


def test_bench_imports_resolve():
    imports = _bench_imports()
    assert {f for _, _, f in imports} >= {"checks.py", "spans.py", "worker.py", "workloads.py"}
    for module_name, name, _ in imports:
        module = importlib.import_module(module_name)
        if name is not None and not hasattr(module, name):
            importlib.import_module(f"{module_name}.{name}")  # a submodule, as ``from`` finds it


def test_bench_shimmed_names_are_bound():
    for module_name, names in SHIMMED.items():
        module = importlib.import_module(module_name)
        for name in names:
            assert callable(getattr(module, name, None)), (module_name, name)


def test_bench_trajectory_attributes_resolve():
    """The benchmark's checks, worker and spans read ``traj.<name>`` off the trajectories
    it simulates; each name resolves on a ``simulate`` result as an array or a count, so
    a change of the trajectory's layout cannot break the benchmark unseen."""
    from gridfreq import Disturbance, Droop, Scenario, SimOptions, gb_reference_params, simulate

    read = {}
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "traj":
                read.setdefault(node.attr, set()).add(path.name)
    assert set(read) >= {"t", "omega", "n_samples"}, read
    assert set().union(*read.values()) >= {"checks.py", "spans.py", "worker.py"}, read
    grid = gb_reference_params()
    traj = simulate(Scenario(grid, Droop(alpha_b=1.0), Disturbance(step_pu=0.05), SimOptions(horizon=1.0)))
    for name in read:
        value = getattr(traj, name)
        assert isinstance(value, int) or (isinstance(value, np.ndarray) and len(value) == traj.n_samples), name


def test_simulate_is_the_function_and_its_module_is_reached_by_from_import():
    """``gridfreq.simulate`` is bound to the function over the submodule of that name;
    ``from gridfreq.simulate import ...`` and ``sys.modules`` still reach the module."""
    from gridfreq.simulate import extract_metrics, simulate

    module = sys.modules["gridfreq.simulate"]
    assert isinstance(module, types.ModuleType) and importlib.import_module("gridfreq.simulate") is module
    assert gridfreq.simulate is simulate is module.simulate and callable(gridfreq.simulate)
    assert not isinstance(gridfreq.simulate, types.ModuleType)
    assert module.extract_metrics is extract_metrics is gridfreq.extract_metrics


def test_bench_capacity_strategies_are_the_sweeps_table():
    """``bench/workloads.py`` names the capacity strategies it cycles; they are the keys
    of ``sweeps._CAPACITY_CONTROLLERS``, in order, so a renamed or added strategy is
    benchmarked as ``capacity_curve`` knows it."""
    from gridfreq.sweeps import _CAPACITY_CONTROLLERS

    tree = ast.parse((BENCH / "workloads.py").read_text(encoding="utf-8"))
    values = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["CAPACITY_STRATEGIES"]
    ]
    assert values == [tuple(_CAPACITY_CONTROLLERS)]


def test_bound_messages_are_written_once():
    """No module writes the bound rule's message by hand: the only string constants
    holding ``must be > 0, got`` or ``must be >= 0, got`` are the two in
    ``model.require_bound``, which every dataclass and bounded argument calls."""
    from gridfreq import model

    rule = re.compile(r"must be >=? 0, got")
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str) and rule.search(node.value):
                found.append((path.name, node.lineno))
    lines, start = inspect.getsourcelines(model.require_bound)
    assert len(found) == 2 and all(
        name == "model.py" and start <= lineno < start + len(lines) for name, lineno in found
    ), found


def test_cli_reports_errors_only_in_main():
    """One error path: in ``cli.py`` only ``main`` prints an ``error:`` line or returns
    an error exit code, and no function's return type admits None next to a value, so
    no helper can print an error and return None for its callers to check."""
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    error_codes = {"EXIT_USAGE", "EXIT_NUMERICAL"}
    sites = {}
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        returns = ast.unparse(func.returns) if func.returns else "None"
        assert returns == "None" or not re.search(r"Optional|\bNone\b", returns), (func.name, returns)
        for node in ast.walk(func):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "print":
                texts = [c.value for c in ast.walk(node) if isinstance(c, ast.Constant) and isinstance(c.value, str)]
                if any(text.startswith("error:") for text in texts):
                    sites.setdefault(func.name, set()).add("print")
            if isinstance(node, ast.Return) and node.value is not None:
                if any(isinstance(n, ast.Name) and n.id in error_codes for n in ast.walk(node.value)):
                    sites.setdefault(func.name, set()).add("return")
    assert sites == {"main": {"print", "return"}}, sites


def test_cli_opens_files_only_in_write_output():
    """One output path: in ``cli.py`` only ``_write_output``, which runs after the run
    and reports a refused write as a usage error, calls ``open`` or ``.open(``."""
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    openers = set()
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(func):
                if isinstance(node, ast.Call) and "open" in (getattr(node.func, a, None) for a in ("id", "attr")):
                    openers.add(func.name)
    assert openers == {"_write_output"}, openers


def test_oracle_partial_fractions_are_written_once():
    """One modal form: in ``lti.py`` only ``_modes``, which both ``step_response`` and
    ``nadir_of_response`` read, calls ``np.polyder``."""
    tree = ast.parse((SRC / "lti.py").read_text(encoding="utf-8"))

    def polyder_calls(root):
        return [n for n in ast.walk(root) if isinstance(n, ast.Call) and getattr(n.func, "attr", None) == "polyder"]

    callers = {
        func.name
        for func in ast.walk(tree)
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)) and polyder_calls(func)
    }
    modes = [func for func in tree.body if isinstance(func, ast.FunctionDef) and func.name == "_modes"]
    assert callers == {"_modes"}, callers
    assert len(polyder_calls(tree)) == len(polyder_calls(modes[0])), "np.polyder called outside any function"


def test_each_run_is_stepped_once():
    """One pass per run: in ``simulate.py`` only ``simulate``, whose trajectory samples
    its deferred rows from the chunks that pass recorded, and ``_storage_maxima`` call
    ``_sample_runs``, once each and never from a nested function."""
    tree = ast.parse((SRC / "simulate.py").read_text(encoding="utf-8"))
    calls = []  # (top-level function, the nested functions within it) of each call

    def visit(node, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and getattr(child.func, "id", None) == "_sample_runs":
                calls.append((path[0] if path else "", path[1:]))
            nested = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
            visit(child, path + (getattr(child, "name", "<lambda>"),) if nested else path)

    visit(tree, ())
    assert sorted(calls) == [("_storage_maxima", ()), ("simulate", ())], calls


def test_rows_are_sampled_by_one_rule():
    """One way to read a row: ``_sample_runs`` takes no ``rows`` to sample in its pass,
    and outside it the row product over recorded chunks, ``np.matmul(heads, table[q],
    out=chunk[q])``, is written only in ``_sample_rows``, which the trajectory's rows
    and ``_storage_maxima`` both call."""
    tree = ast.parse((SRC / "simulate.py").read_text(encoding="utf-8"))
    funcs = {func.name: func for func in tree.body if isinstance(func, ast.FunctionDef)}
    args = funcs["_sample_runs"].args
    params = [arg.arg for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs)]
    assert "rows" not in params, params

    def row_products(root):
        return [
            node
            for node in ast.walk(root)
            if isinstance(node, ast.Call)
            and getattr(node.func, "attr", None) == "matmul"
            and any(
                kw.arg == "out" and isinstance(kw.value, ast.Subscript) and isinstance(kw.value.slice, ast.Name)
                for kw in node.keywords
            )
        ]

    def calls(root, name):
        return [node for node in ast.walk(root) if isinstance(node, ast.Call) and getattr(node.func, "id", None) == name]

    writers = {name for name, func in funcs.items() if name != "_sample_runs" and row_products(func)}
    assert writers == {"_sample_rows"}, writers
    # counted over the whole module, so classes and module-level code count too
    outside = len(row_products(tree)) - len(row_products(funcs["_sample_runs"]))
    assert outside == len(row_products(funcs["_sample_rows"])) == 1, outside
    assert {name for name, func in funcs.items() if calls(func, "_sample_rows")} >= {"_row", "_storage_maxima"}
