"""Structure guards: the benchmark's tracing script still finds every name
it wraps, every propagation goes through one RK4 scan, one routine samples
a pulse's controls and their rates, a configuration is validated in one
place, no module loads OpenSSL, theta's rate has one formula, the policy
names, the initial-state names and the run check names are each spelled
in one module, propagation imports only the grid and the errors, no run
takes a branch regime, every record field is read somewhere in the
package, and the garbage collector is tuned in two places only."""
import ast
import importlib
import importlib.util
import inspect
import json
import pkgutil
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from conftest import ae_setup, with_controls
import nhsta
import nhsta.cli
import nhsta.output
import nhsta.verify
from nhsta import config, experiments, propagation, synthesis, two_level
from nhsta.grids import TimeGrid

TRACE_CHILD = Path(__file__).resolve().parents[1] / "bench" / "trace_child.py"
COMPARE_TREES = (Path(__file__).resolve().parents[1] / "tools"
                 / "compare_trees.py")
MODULES = [importlib.import_module(f"nhsta.{info.name}")
           for info in pkgutil.iter_modules(nhsta.__path__)]


def load_script(path):
    """The script at ``path``, imported as a module of its own name."""
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_patches():
    return load_script(TRACE_CHILD).PATCHES


def test_trace_patches_resolve():
    patches = load_patches()
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _ in patches
               if not callable(getattr(owner, attr, None))]
    assert patches
    assert missing == []


# Wrapped names a certified table build and its runs call.
TABLE_BUILD_SPANS = {
    "two_level.mixing_angle_path", "two_level.eigenvalue_path",
    "synthesis.hermitian_realizable", "synthesis.general_family_omega_zero",
    "synthesis.matched_gauge", "gauges.gauge_from_integrands",
    "synthesis.nullification_residual", "propagation.amplitudes"}


def test_trace_wraps_the_table_build(tmp_path):
    # the tracer's wrappers accept the package's call forms: a traced sweep
    # over every policy exits 0, counts the angle path's samples and has a
    # span for every wrapped name of the table build
    import json
    import os
    import subprocess
    import sys
    assert TABLE_BUILD_SPANS <= {name for _, _, name in load_patches()}
    env = dict(os.environ, PYTHONPATH=str(Path(nhsta.__file__).parents[1]))
    trace = tmp_path / "trace.json"
    subprocess.run([sys.executable, str(TRACE_CHILD), str(trace), "sweep",
                    "--gamma", "0.3", "--steps", "200", "--policy",
                    ",".join(experiments.POLICIES), "--out", str(tmp_path)],
                   env=env, capture_output=True, check=True)
    report = json.loads(trace.read_text())
    assert report["counters"]["two_level.mixing_angle_path_points"] == 801
    assert TABLE_BUILD_SPANS <= {span[0] for span in report["spans"]}


def test_import_runs_no_generated_code(cli_import_modules):
    # records are plain classes: importing the CLI never loads dataclasses,
    # whose generated methods cost more than the rest of the package import
    assert "dataclasses" not in cli_import_modules
    records = [f"{module.__name__}.{name}" for module in [nhsta] + MODULES
               for name, value in vars(module).items()
               if isinstance(value, type)
               and hasattr(value, "__dataclass_fields__")]
    assert records == []


def collector_uses(module):
    """The enclosing function (None at module level) of each attribute read
    on the ``gc`` module, under any name it is imported as, and of each
    ``from gc import`` in ``module``."""
    tree = ast.parse(Path(module.__file__).read_text())
    names = {alias.asname or alias.name for node in ast.walk(tree)
             if isinstance(node, ast.Import)
             for alias in node.names if alias.name == "gc"}

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if (isinstance(node, ast.Attribute)
                and getattr(node.value, "id", None) in names
                or isinstance(node, ast.ImportFrom) and node.module == "gc"):
            yield function
        for child in ast.iter_child_nodes(node):
            yield from visit(child, function)

    return set(visit(tree, None))


def test_collector_is_tuned_in_two_places():
    # the process-tuning policy the README documents lives in the import
    # guard of nhsta/__init__.py and in cli._tune_process, nowhere else
    uses = {(module.__name__, function) for module in [nhsta] + MODULES
            for function in collector_uses(module)}
    assert uses == {("nhsta", None), ("nhsta.cli", "_tune_process")}


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
                      "integrate", "theta_at"]


def package_records():
    """(class, its ``__init__`` node) of every package class that declares
    ``__slots__``."""
    for module in MODULES:
        tree = ast.parse(Path(module.__file__).read_text())
        for node in tree.body:
            value = getattr(module, getattr(node, "name", ""), None)
            if isinstance(node, ast.ClassDef) and "__slots__" in vars(value):
                init = [f for f in node.body if isinstance(f, ast.FunctionDef)
                        and f.name == "__init__"]
                yield value, init[0] if init else None


def attributes_loaded(skip=None):
    """(owner, name) of every attribute the package reads, ``x.name`` or
    ``getattr(x, "name")``, outside the node ``skip``.  The owner is the
    enclosing class's name when ``x`` is ``self``, else None: a read of
    ``self.name`` is a read of that class's field only."""
    skipped = set() if skip is None else {id(n) for n in ast.walk(skip)}
    reads = set()

    def visit(node, cls):
        if id(node) in skipped:
            return
        if isinstance(node, ast.ClassDef):
            cls = node.name
        receiver = name = None
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            receiver, name = node.value, node.attr
        elif (isinstance(node, ast.Call)
              and getattr(node.func, "id", None) == "getattr"
              and len(node.args) >= 2
              and isinstance(node.args[1], ast.Constant)):
            receiver, name = node.args[0], node.args[1].value
        if name is not None:
            own = getattr(receiver, "id", None) == "self"
            reads.add((cls if own else None, name))
        for child in ast.iter_child_nodes(node):
            visit(child, cls)

    for module in MODULES:
        visit(ast.parse(Path(module.__file__).read_text()), None)
    return reads


def test_records_keep_only_fields_the_package_reads():
    # a slot that only its constructor touches is a value built for no one;
    # a field counts as read through ``self`` in its own class, or through
    # any other receiver of that attribute name
    unread = []
    for cls, init in package_records():
        reads = attributes_loaded(skip=init)
        unread += [f"{cls.__name__}.{name}" for name in cls.__slots__
                   if name != "__weakref__" and (None, name) not in reads
                   and (cls.__name__, name) not in reads]
    assert unread == []
    # the collector sees the records and the reads it checks
    records = {cls.__name__ for cls, _ in package_records()}
    assert {"ShortcutTable", "GaugeFunctions", "TimeGrid"} <= records
    reads = attributes_loaded()
    assert {(None, "f_plus"), (None, "residual"), ("ShortcutTable", "scan"),
            ("TimeGrid", "t_f")} <= reads


def test_policy_names_are_spelled_once():
    # the three policy names are string literals in synthesis, next to the
    # formulas they select, and every other module imports the constants
    names = ("hermitian-realizable", "naive-cd", "general-omega-zero")
    found = [(module.__name__, node.value) for module in [nhsta] + MODULES
             for node in ast.walk(ast.parse(Path(module.__file__).read_text()))
             if isinstance(node, ast.Constant) and isinstance(node.value, str)
             and any(name in node.value for name in names)]
    assert sorted(found) == sorted(("nhsta.synthesis", name) for name in names)


def test_state_names_are_spelled_once():
    # the two initial-state names are string literals in experiments, next
    # to INITIAL_STATES and the psi0 each selects, and every other module
    # imports the constants
    names = ("bare-ground", "eigen-plus")
    found = [(module.__name__, node.value) for module in [nhsta] + MODULES
             for node in ast.walk(ast.parse(Path(module.__file__).read_text()))
             if isinstance(node, ast.Constant) and isinstance(node.value, str)
             and any(name in node.value for name in names)]
    assert sorted(found) == sorted(("nhsta.experiments", name)
                                   for name in names)


def relative_imports(module):
    """The package modules ``module`` imports from, at any depth
    (``from .name import ...`` or ``from . import name``)."""
    tree = ast.parse(Path(module.__file__).read_text())
    return {node.module or alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names}


def test_propagation_knows_only_tables_and_states():
    # the RK4 module reads H as a table and psi as bare-basis states; the
    # gauge and the frame projection live in synthesis, which sits below
    # the pipeline and the configuration
    assert relative_imports(propagation) == {"errors", "grids"}
    assert relative_imports(synthesis) & {"experiments", "config"} == set()


def test_run_check_names_are_spelled_once():
    # the seven per-run check names are string literals in experiments,
    # in its table of checks, and every other module reads that table
    names = ("nullification-residual", "frame-coupling-21", "angle-rate",
             "max-abs-g-minus", "g-plus-sq-dev", "closed-form-vs-ode",
             "convergence")
    found = {(module.__name__, name) for module in [nhsta] + MODULES
             for node in ast.walk(ast.parse(Path(module.__file__).read_text()))
             if isinstance(node, ast.Constant) and isinstance(node.value, str)
             for name in names
             if node.value == name or node.value.startswith(name + "[")}
    assert found == {("nhsta.experiments", name) for name in names}
    assert tuple(experiments.RUN_CHECKS) == names


def test_benchmark_certifies_rows_with_the_run_check_bounds():
    # bench/run.py keeps its own copies of the two bounds that certify a
    # row; they must stay those of the table
    tree = ast.parse((TRACE_CHILD.parent / "run.py").read_text())
    found = {target.id: node.value.value for node in tree.body
             if isinstance(node, ast.Assign)
             and isinstance(node.value, ast.Constant)
             for target in node.targets if isinstance(target, ast.Name)}
    bounds = {name: experiments.RUN_CHECKS[name][0]
              for name in experiments.CERTIFIED_BY.values()}
    assert bounds == {"convergence": found["CONVERGENCE_BOUND"],
                      "nullification-residual": found["RESIDUAL_BOUND"]}


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
    # one table mode and no option: a quarter-step table's scan holds the
    # run and its half-step rerun
    assert list(inspect.signature(propagation.scan_table).parameters) == [
        "h", "grid"]
    grid = TimeGrid(0.0, 1.0, 10)
    table = np.zeros((4, 4, grid.n_points), dtype=complex)
    runs = propagation.scan_table(table, grid).apply([1, 0])
    assert len(runs) == 2
    assert all(np.array_equal(run.psi[-1], [1, 0]) for run in runs)

    # every entry point reaches that scan and its apply
    assert experiments.scan_table is propagation.scan_table
    assert nhsta.verify.scan_table is propagation.scan_table
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
    monkeypatch.setattr(nhsta.verify, "scan_table", counted_scan)
    monkeypatch.setattr(propagation.PrefixScan, "apply", counted_apply)
    grid = TimeGrid(0.0, 1.0, 100)
    h = 0.5 * np.array([[0, 1], [1, 0]], dtype=complex)
    psi0 = np.array([1, 0], dtype=complex)
    pulse, run_grid = ae_setup(1.0, 400)
    entry_points = {
        "verify.rabi_errors": lambda: nhsta.verify.rabi_errors(100),
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
    # Omega_R, Delta and their rates are read off a pulse in one place, so
    # every reader gets the same finiteness check; the decay rate is a
    # number, passed on as a float and never filled into an array
    tree = ast.parse(Path(two_level.__file__).read_text())
    controls = ("omega_r", "delta", "d_omega_r", "d_delta")
    samplers = {(fn.name, node.attr) for fn in ast.walk(tree)
                if isinstance(fn, ast.FunctionDef)
                for node in ast.walk(fn)
                if isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "pulse" and node.attr in controls}
    assert samplers == {("_controls", name) for name in controls}
    fillers = [(module.__name__, node.attr) for module in (two_level, config)
               for node in ast.walk(ast.parse(Path(module.__file__).read_text()))
               if isinstance(node, ast.Attribute)
               and node.attr in ("full_like", "zeros_like")]
    assert fillers == []
    pulse, grid = ae_setup(0.3, 100)
    assert type(two_level.sample_controls(pulse, grid)[3]) is float


def test_controls_sampled_once_per_pulse():
    # the angle path, its rate and H0 read one sample of the controls, on
    # the quarter-step grid; the run grid reads none
    pulse, grid = ae_setup(1.0, 400)
    shapes = []

    def omega_r(t):
        shapes.append(np.shape(t))
        return pulse.omega_r(t)

    counted = with_controls(pulse, omega_r=omega_r)
    for table in experiments.shortcut_tables(counted, grid):
        for state in experiments.INITIAL_STATES:
            table.run(state)
    assert shapes == [(4 * grid.steps + 1,)]


@pytest.mark.parametrize("gamma", [0.3, 3.0])
def test_runs_call_no_complex_transcendental(monkeypatch, gamma):
    # theta, its rate and trigonometric functions, the gauges and the closed
    # form come from real functions of real parts, so a whole run works
    # with numpy's transcendental functions refusing complex input
    def real_only(ufunc):
        def call(*args, **kwargs):
            if any(np.iscomplexobj(x) for x in args):
                raise TypeError(f"complex input to numpy.{ufunc.__name__}")
            return ufunc(*args, **kwargs)
        return call

    for name in ("arctan", "sin", "cos", "exp", "log", "log1p", "sinh",
                 "cosh"):
        monkeypatch.setattr(np, name, real_only(getattr(np, name)))
    with pytest.raises(TypeError):
        np.exp(1j)
    pulse, grid = ae_setup(gamma, 400)
    for table in experiments.shortcut_tables(pulse, grid):
        for state in experiments.INITIAL_STATES:
            table.run(state)
        assert table.residual <= 1e-10
        assert np.isfinite(table.frame_check())


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


def test_one_loop_records_the_shortcut_runs():
    # sweep, figure3 and figure4 build, run, record and flag their runs
    # through OutputSet.record_runs; verify runs its own, one per decay rate
    callers = set()
    for name in ("cli", "figures", "output", "verify"):
        tree = ast.parse(Path(importlib.import_module(
            f"nhsta.{name}").__file__).read_text())
        for node in tree.body:
            methods = node.body if isinstance(node, ast.ClassDef) else [node]
            for fn in methods:
                if not isinstance(fn, ast.FunctionDef):
                    continue
                scope = ".".join([name] + [node.name] * (fn is not node)
                                 + [fn.name])
                callers |= {(getattr(call.func, "id", None)
                             or getattr(call.func, "attr", None), scope)
                            for call in ast.walk(fn)
                            if isinstance(call, ast.Call)}
    assert sorted(c for c in callers
                  if c[0] in ("shortcut_tables", "run_shortcut")) == [
        ("run_shortcut", "verify._verify_checks"),
        ("shortcut_tables", "output.OutputSet.record_runs")]


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
            if name in ("hashlib", "_hashlib")] == [("nhsta.output", "_sha256")]
    assert [name for name, fn in imports(nhsta.output) if fn == "_sha256"] == [
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


def write_outputs(path, cell, manifest_extra):
    """A hand-made output directory: one CSV table whose middle cell of
    ``x`` is ``cell``, and a manifest."""
    path.mkdir()
    (path / "t.csv").write_text(f"t,x,label\n0,1.5,a\n1,{cell},b\n"
                                "2,nan,c\n")
    (path / "t_manifest.json").write_text(json.dumps(
        {"config": {"steps": 4000, **manifest_extra},
         "runs": [{"gamma": 1.0, **manifest_extra}]}))


def test_compare_trees_reports_only_what_moved(tmp_path):
    tool = load_script(COMPARE_TREES)
    write_outputs(tmp_path / "parent", "-2", {"wall_time_s": 0.1,
                                              "out": "a"})
    # another run time and output directory alone are no difference
    write_outputs(tmp_path / "same", "-2", {"wall_time_s": 0.2, "out": "b"})
    assert tool.compare_dirs(tmp_path / "parent", tmp_path / "same") == []
    write_outputs(tmp_path / "moved", "-2.5", {"wall_time_s": 0.1,
                                               "out": "a", "seed": 1})
    assert tool.compare_dirs(tmp_path / "parent", tmp_path / "moved") == [
        "t.csv: column x: max abs move 5.000e-01, max rel move 2.500e-01",
        "t_manifest.json: .config.seed differs",
        "t_manifest.json: .runs[0].seed differs"]
    (tmp_path / "moved" / "extra.csv").write_text("t\n0\n")
    assert "extra.csv: only in change" in tool.compare_dirs(
        tmp_path / "parent", tmp_path / "moved")


def write_json_table(path, cell, label):
    """A hand-made output directory holding one JSON table whose middle
    cell of ``x`` is ``cell`` and whose last label is ``label``."""
    path.mkdir()
    (path / "t.json").write_text(json.dumps(
        {"columns": ["t", "x", "label", "ok"],
         "rows": [[0.0, 1.5, "a", True], [1.0, cell, "b", False],
                  [2.0, float("nan"), label, True]]}, indent=1) + "\n")


def test_compare_trees_reads_json_tables_by_column(tmp_path):
    tool = load_script(COMPARE_TREES)
    write_json_table(tmp_path / "parent", -2.0, "c")
    write_json_table(tmp_path / "same", -2.0, "c")
    assert tool.compare_dirs(tmp_path / "parent", tmp_path / "same") == []
    write_json_table(tmp_path / "moved", -2.5, "d")
    assert tool.compare_dirs(tmp_path / "parent", tmp_path / "moved") == [
        "t.json: column x: max abs move 5.000e-01, max rel move 2.500e-01",
        "t.json: column label: 1 cell(s) differ"]
    # the same values spelled otherwise are no move, but still bytes
    (tmp_path / "spelled").mkdir()
    (tmp_path / "spelled" / "t.json").write_text(
        (tmp_path / "parent" / "t.json").read_text().replace("-2.0", "-2"))
    assert tool.compare_dirs(tmp_path / "parent", tmp_path / "spelled") == [
        "t.json: bytes differ"]


def test_compare_trees_reads_manifest_bytes_past_ignored_entries(tmp_path):
    # a manifest whose entries match but whose layout moved differs; the
    # values of wall_time_s and out alone are no difference
    tool = load_script(COMPARE_TREES)
    for name, out, wall, indent in (("parent", 'a "b\\"', 0.5, 1),
                                    ("same", "c", 1e-05, 1),
                                    ("spelled", 'a "b\\"', 0.5, 2)):
        (tmp_path / name).mkdir()
        (tmp_path / name / "t_manifest.json").write_text(json.dumps(
            {"config": {"out": out, "steps": 4000},
             "runs": [{"wall_time_s": wall, "gamma": 1.0}]},
            indent=indent) + "\n")
    assert tool.compare_dirs(tmp_path / "parent", tmp_path / "same") == []
    assert tool.compare_dirs(tmp_path / "parent", tmp_path / "spelled") == [
        "t_manifest.json: bytes differ"]


def test_compare_trees_writes_its_input_files():
    # the pulse table is seeded, covers the default window and has a
    # non-negative Omega_R; every input file is read by an invocation
    tool = load_script(COMPARE_TREES)
    files = tool.inputs()
    assert files == tool.inputs()
    table = np.loadtxt(files["pulse.csv"].splitlines(), delimiter=",")
    assert (table[0, 0], table[-1, 0]) == (-1.0, 1.0)
    assert np.all(table[:, 1] > 0)
    args = [arg for args in tool.CORPUS for arg in args]
    assert set(files) <= set(args)


def test_compare_trees_reports_status_streams_and_checks():
    tool = load_script(COMPARE_TREES)
    parent = (1, "PASS  a[gamma=1]  measured=1e-12  bound=1e-10\n"
                 "FAIL  b[gamma=1]  measured=1e-03  bound=1e-06\n", "")
    assert tool.compare_runs(parent, parent) == []
    change = (0, parent[1].replace("FAIL  b", "PASS  b"), "note\n")
    assert tool.compare_runs(parent, change) == [
        "exit status 1 -> 0", "check b[gamma=1]: FAIL -> PASS",
        "stdout: 1 line(s) differ, first ['FAIL  b[gamma=1]  measured=1e-03"
        "  bound=1e-06'] -> ['PASS  b[gamma=1]  measured=1e-03  "
        "bound=1e-06']",
        "stderr: 1 line(s) differ, first [] -> ['note']"]
    # every corpus invocation is a command the CLI knows
    assert {args[0] for args in tool.CORPUS} <= set(nhsta.cli.COMMANDS)


def test_compare_trees_corpus_reaches_every_failure(tmp_path, capsys,
                                                   monkeypatch):
    # the corpus compares each exit status the CLI documents, not only
    # the runs that succeed, each run beside the tool's input files
    tool = load_script(COMPARE_TREES)
    for name, text in tool.inputs().items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    want = [(3, "numerical error: DegenerateRegime: "),
            (3, "numerical error: ZeroGauge: "),
            (3, "numerical error: SinThetaSingular: "),
            (3, "numerical error: InconsistentChoice: "),
            (3, "numerical error: NonFinite: "),
            (2, "configuration error: "),
            (1, "uncertified: gamma=3 ")]
    assert all(args in tool.CORPUS for args in tool.ERROR_PATHS)
    got = []
    for args, (_, start) in zip(tool.ERROR_PATHS, want):
        status = nhsta.cli.main([*args, "--out", "out"])
        got.append((status, capsys.readouterr().err[:len(start)]))
    assert got == want
