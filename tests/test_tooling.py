"""Structure guards: the benchmark's tracing script still finds every name
it wraps, every propagation goes through one RK4 scan, one routine samples
a pulse's controls, and a configuration is validated in one place."""
import ast
import importlib
import importlib.util
import pkgutil
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

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
    pulse, run_grid, regime = experiments.ae_pulse_and_grid(
        nhsta.AllenEberlyParams(omega0=1.0, delta0=9.0, gamma=1.0), 400)
    entry_points = {
        "cli.rabi_error": lambda: nhsta.cli.rabi_error(100),
        "integrate": lambda: propagation.integrate(lambda t: h, psi0, grid),
        "convergence_check": lambda: propagation.convergence_check(
            lambda t: h, psi0, grid),
        "ShortcutTable.run": lambda: experiments.shortcut_table(
            pulse, run_grid, regime=regime).run(),
    }
    for name, call in entry_points.items():
        calls.clear()
        call()
        assert calls == {"scan": 1, "apply": 1}, name


def test_one_control_sampler():
    # Omega_R, Delta and gamma are sampled in one place, so every reader
    # gets the same finiteness check
    tree = ast.parse(Path(two_level.__file__).read_text())
    samplers = {fn.name for fn in ast.walk(tree)
                if isinstance(fn, ast.FunctionDef)
                for node in ast.walk(fn)
                if isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("omega_r", "delta", "gamma")}
    assert samplers == {"_controls"}


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


def test_cli_imports_file_writers_lazily():
    # hashlib (which loads OpenSSL) and json serve only the commands that
    # write a file, so nhsta.cli imports them where a file is written
    tree = ast.parse(Path(nhsta.cli.__file__).read_text())
    top_level = {alias.name.split(".")[0] for node in tree.body
                 if isinstance(node, ast.Import) for alias in node.names}
    top_level |= {node.module.split(".")[0] for node in tree.body
                  if isinstance(node, ast.ImportFrom) and node.module}
    assert top_level.isdisjoint({"hashlib", "json"})
