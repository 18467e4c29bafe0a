"""Structure guards: the benchmark's tracing script still finds every name
it wraps, every propagation goes through one RK4 scan, one routine samples
a pulse's controls and their rates, a configuration is validated in one
place, no module loads OpenSSL, theta's rate has one formula, the policy
names are spelled in one module, and no run takes a branch regime."""
import ast
import importlib
import importlib.util
import pkgutil
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from conftest import ae_setup, with_controls
import nhsta
import nhsta.cli
from nhsta import experiments, propagation, two_level
from nhsta.grids import TimeGrid

TRACE_CHILD = Path(__file__).resolve().parents[1] / "bench" / "trace_child.py"
MODULES = [importlib.import_module(f"nhsta.{info.name}")
           for info in pkgutil.iter_modules(nhsta.__path__)]


def load_patches():
    spec = importlib.util.spec_from_file_location("trace_child", TRACE_CHILD)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.PATCHES


def test_trace_patches_resolve():
    patches = load_patches()
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _ in patches
               if not callable(getattr(owner, attr, None))]
    assert patches
    assert missing == []


def test_import_runs_no_generated_code():
    # records are plain classes: importing the CLI never loads dataclasses,
    # whose generated methods cost more than the rest of the package import
    import subprocess
    import sys
    code = "import sys, nhsta.cli; print('dataclasses' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True)
    assert done.stdout.strip() == "False"
    records = [f"{module.__name__}.{name}" for module in [nhsta] + MODULES
               for name, value in vars(module).items()
               if isinstance(value, type)
               and hasattr(value, "__dataclass_fields__")]
    assert records == []


def kept_imports(module):
    """Names a module imports under ``# noqa: F401``."""
    source = Path(module.__file__).read_text()
    lines = source.splitlines()
    return [alias.asname or alias.name
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom)
            and "# noqa: F401" in lines[node.end_lineno - 1]
            for alias in node.names]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_unused_imports_are_traced_names(module):
    # a module keeps an unused import only so the tracer can wrap it there;
    # once the tracer stops patching a name, its import must go too
    traced = {attr for owner, attr, _ in load_patches() if owner is module}
    assert [name for name in kept_imports(module) if name not in traced] == []


def test_kept_imports_are_found():
    # the guard above reads the imports it checks
    assert "integrate" in kept_imports(nhsta.cli)


def used_names(stmt):
    """Names and attribute names a statement reads, annotations left out."""
    notes = [node.returns for node in ast.walk(stmt)
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    notes += [node.annotation for node in ast.walk(stmt)
              if isinstance(node, (ast.arg, ast.AnnAssign))]
    skip = {id(sub) for note in notes if note is not None
            for sub in ast.walk(note)}
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(stmt)
            if isinstance(node, (ast.Name, ast.Attribute))
            and id(node) not in skip}


def unused_public_names():
    """Public top-level functions and classes of the package that no other
    statement in it reads (imports and ``__all__`` do not count)."""
    defined, used = set(), set()
    for module in MODULES:
        for stmt in ast.parse(Path(module.__file__).read_text()).body:
            if isinstance(stmt, (ast.Import, ast.ImportFrom)) or (
                    isinstance(stmt, ast.Assign)
                    and [getattr(t, "id", None) for t in stmt.targets]
                    == ["__all__"]):
                continue
            names = used_names(stmt)
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                names.discard(stmt.name)  # recursion is not a use
                if not stmt.name.startswith("_"):
                    defined.add(stmt.name)
            used |= names
    return sorted(defined - used)


def test_public_names_are_used_or_traced():
    # the package ships what its commands run: a public function or class
    # that only tests call belongs in tests/oracles.py or nowhere.  The one
    # exception is a shim the benchmark tracer still wraps; this list
    # shrinks as the tracer stops wrapping them
    traced = {attr for _, attr, _ in load_patches()}
    unused = unused_public_names()
    assert [name for name in unused if name not in traced] == []
    assert unused == ["assemble_h1_series", "convergence_check",
                      "gauge_simple", "integrate", "theta_at"]


def test_policy_names_are_spelled_once():
    # the three policy names are string literals in synthesis, next to the
    # formulas they select, and every other module imports the constants
    names = ("hermitian-realizable", "naive-cd", "general-omega-zero")
    found = [(module.__name__, node.value) for module in [nhsta] + MODULES
             for node in ast.walk(ast.parse(Path(module.__file__).read_text()))
             if isinstance(node, ast.Constant) and isinstance(node.value, str)
             and any(name in node.value for name in names)]
    assert sorted(found) == sorted(("nhsta.synthesis", name) for name in names)


def test_one_propagation_path(monkeypatch):
    tree = ast.parse(Path(propagation.__file__).read_text())
    defs = [node for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    # one RK4 stage routine, one scan class, built in one function
    assert [d.name for d in defs if "rk4" in d.name.lower()] == ["_rk4_step"]
    assert [d.name for d in defs if "scan" in d.name.lower()
            and isinstance(d, ast.ClassDef)] == ["PrefixScan"]
    builders = [d.name for d in defs if isinstance(d, ast.FunctionDef)
                and any(isinstance(c, ast.Call)
                        and getattr(c.func, "id", None) == "PrefixScan"
                        for c in ast.walk(d))]
    assert builders == ["scan_table"]

    # every entry point reaches that scan and its apply
    assert experiments.scan_table is propagation.scan_table
    assert nhsta.cli.scan_table is propagation.scan_table
    calls = Counter()
    scan, apply = propagation.scan_table, propagation.PrefixScan.apply

    def counted_scan(*args, **kwargs):
        calls["scan"] += 1
        return scan(*args, **kwargs)

    def counted_apply(*args, **kwargs):
        calls["apply"] += 1
        return apply(*args, **kwargs)

    monkeypatch.setattr(propagation, "scan_table", counted_scan)
    monkeypatch.setattr(experiments, "scan_table", counted_scan)
    monkeypatch.setattr(nhsta.cli, "scan_table", counted_scan)
    monkeypatch.setattr(propagation.PrefixScan, "apply", counted_apply)
    grid = TimeGrid(0.0, 1.0, 100)
    h = 0.5 * np.array([[0, 1], [1, 0]], dtype=complex)
    psi0 = np.array([1, 0], dtype=complex)
    pulse, run_grid = ae_setup(1.0, 400)
    entry_points = {
        "cli.rabi_error": lambda: nhsta.cli.rabi_error(100),
        "integrate": lambda: propagation.integrate(lambda t: h, psi0, grid),
        "convergence_check": lambda: propagation.convergence_check(
            lambda t: h, psi0, grid),
        "run_shortcut": lambda: experiments.run_shortcut(
            pulse, run_grid),
    }
    for name, call in entry_points.items():
        calls.clear()
        call()
        assert calls == {"scan": 1, "apply": 1}, name


def test_one_control_sampler():
    # Omega_R, Delta, gamma and their rates are read off a pulse in one
    # place, so every reader gets the same finiteness check
    tree = ast.parse(Path(two_level.__file__).read_text())
    controls = ("omega_r", "delta", "gamma", "d_omega_r", "d_delta", "d_gamma")
    samplers = {(fn.name, node.attr) for fn in ast.walk(tree)
                if isinstance(fn, ast.FunctionDef)
                for node in ast.walk(fn)
                if isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "pulse" and node.attr in controls}
    assert samplers == {("_controls", name) for name in controls}


def test_controls_sampled_twice_per_pulse():
    # the angle path and its rate read one sample of the controls, H0 a
    # second, both on the quarter-step grid; the run grid reads none
    pulse, grid = ae_setup(1.0, 400)
    shapes = []

    def omega_r(t):
        shapes.append(np.shape(t))
        return pulse.omega_r(t)

    counted = with_controls(pulse, omega_r=omega_r)
    for table in experiments.shortcut_tables(counted, grid):
        for state in experiments.INITIAL_STATES:
            table.run(state)
    assert shapes == [(4 * grid.steps + 1,)] * 2


def function_defs(paths):
    """(file name, FunctionDef) of every function defined in ``paths``."""
    for path in paths:
        for node in ast.walk(ast.parse(Path(path).read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield Path(path).name, node


def test_regime_is_a_parameter_of_the_branch_cut_figure_only():
    # the tracked angle picks E_+, so no run takes a regime; it only places
    # figure1's eta (the CLI labels rows with classify_regime's result)
    found = sorted(fn.name for _, fn in function_defs(
                       module.__file__ for module in MODULES)
                   if "regime" in [arg.arg for arg in fn.args.posonlyargs
                                   + fn.args.args + fn.args.kwonlyargs])
    assert found == ["branch_argument", "zplane_series"]


def test_branch_sqrt_is_the_test_oracle_only():
    paths = [module.__file__ for module in [nhsta] + MODULES]
    paths += sorted(Path(__file__).parent.glob("*.py"))
    assert [name for name, fn in function_defs(paths)
            if fn.name == "branch_sqrt"] == ["oracles.py"]


def test_one_validation_site():
    # a configuration is validated once, by main, before any command runs
    callers = {(module.__name__, fn.name) for module in MODULES
               for fn in ast.walk(ast.parse(Path(module.__file__).read_text()))
               if isinstance(fn, ast.FunctionDef)
               for node in ast.walk(fn)
               if isinstance(node, ast.Call)
               and isinstance(node.func, ast.Attribute)
               and node.func.attr == "validate"}
    assert callers == {("nhsta.cli", "main")}


def imports(module):
    """(top-level imported name, innermost enclosing function or None) of
    every absolute import in a module."""
    tree = ast.parse(Path(module.__file__).read_text())
    enclosing = {}
    for fn in ast.walk(tree):  # breadth first: inner functions come later
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                enclosing[node] = fn.name
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            names = [node.module]
        else:
            continue
        for name in names:
            yield name.split(".")[0], enclosing.get(node)


def test_file_writers_are_imported_lazily():
    # json and the manifest digest serve only the commands that write a
    # file; hashlib maps OpenSSL's libcrypto, so it is imported only as the
    # fallback of the one digest site, after the interpreter's built-ins
    found = [(module.__name__, name, fn) for module in [nhsta] + MODULES
             for name, fn in imports(module)]
    assert [entry for entry in found if entry[2] is None
            and entry[1] in ("hashlib", "_hashlib", "json")] == []
    assert [(module, fn) for module, name, fn in found
            if name in ("hashlib", "_hashlib")] == [("nhsta.cli", "_sha256")]
    assert [name for name, fn in imports(nhsta.cli) if fn == "_sha256"] == [
        "_sha2", "_sha256", "hashlib"]


def test_no_numeric_theta_rate_and_no_scipy():
    # theta's rate has one formula, mixing_angle_rate, fed by each pulse's
    # exact derivatives (a pulse file's through its cubic spline); scipy is
    # a test-only oracle
    found = [(module.__name__, name) for module in [nhsta] + MODULES
             for name, _ in imports(module) if name == "scipy"]
    found += [(module.__name__, node.attr) for module in MODULES
              for node in ast.walk(ast.parse(Path(module.__file__).read_text()))
              if isinstance(node, ast.Attribute) and node.attr == "gradient"]
    assert found == []
