"""CLI commands: emission formats, manifests, exit codes, determinism."""
import ast
import hashlib
import json
import re
import sys
from hashlib import sha256
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from nhsta.cli import CSV_BLOCK_ROWS, COMMANDS, OutputSet, build_parser, main
from nhsta.config import (OPTIONS, ExperimentConfig, build_config,
                          parse_config_file)
from nhsta.errors import ConfigError, NhStaError


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    cols = {name: [] for name in header}
    for line in lines[1:]:
        for name, cell in zip(header, line.split(",")):
            try:
                cols[name].append(float(cell))
            except ValueError:
                cols[name].append(cell)
    return {k: (np.array(v) if not isinstance(v[0], str) else v)
            for k, v in cols.items()}


def assert_uncertified_line(line, gamma, policy, initial, run):
    """``line`` is the whole stderr line of one uncertified run: its labels,
    then the gap and the residual at %.3e with their bounds, as in the
    manifest entry ``run``."""
    number = r"(\d\.\d{3}e[+-]\d{2})"
    match = re.fullmatch(
        rf"uncertified: gamma={re.escape(gamma)} policy={policy} "
        rf"initial_state={initial} convergence={number} \(bound 1e-07\) "
        rf"max_residual={number} \(bound 1e-10\)", line)
    assert match, line
    assert match.groups() == (f"{run['convergence']:.3e}",
                              f"{run['max_residual']:.3e}")


def closed_form_callers(monkeypatch):
    """The names of the functions that call ``closed_form_gplus`` through
    ``nhsta.experiments`` (where the benchmark tracer wraps it), in order."""
    from nhsta import experiments
    closed_form_gplus, callers = experiments.closed_form_gplus, []

    def counted(level, grid):
        callers.append(sys._getframe(1).f_code.co_name)
        return closed_form_gplus(level, grid)

    monkeypatch.setattr(experiments, "closed_form_gplus", counted)
    return callers


def test_cli_import_leaves_scipy_unloaded(cli_import_modules):
    assert "scipy" not in cli_import_modules


@pytest.fixture(scope="module")
def numpy_only_modules():
    """The modules a child interpreter holds after importing numpy alone.
    The import checks below compare with it, so that a site hook loading
    a module cannot fail them."""
    import subprocess
    code = "import sys, numpy; print(sorted(sys.modules))"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True)
    return set(ast.literal_eval(done.stdout))


def test_verify_leaves_scipy_and_numpy_random_unloaded(tmp_path):
    import subprocess
    import sys
    code = ("import sys; from nhsta.cli import main; "
            f"code = main(['verify', '--out', {str(tmp_path)!r}]); "
            "print(code, 'scipy' in sys.modules, "
            "'numpy.random' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True)
    assert done.stdout.splitlines()[-1] == "0 False False"


def test_verify_loads_no_file_writing_modules(tmp_path, numpy_only_modules):
    # hashlib (OpenSSL) and json serve only the commands that write a file;
    # compared with the numpy-only child
    import subprocess
    names = ("hashlib", "_hashlib", "json")
    loaded = f"sorted(m for m in {names!r} if m in sys.modules)"
    code = ("import sys; from nhsta.cli import main; "
            "code = main(['verify', '--gamma', '0.3', "
            f"'--out', {str(tmp_path)!r}]); "
            f"print(code, {loaded})")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True)
    baseline = sorted(m for m in names if m in numpy_only_modules)
    assert done.stdout.splitlines()[-1] == f"0 {baseline}"


@pytest.mark.parametrize("argv", [
    ["sweep", "--gamma", "0.3", "--steps", "200"], ["figure1"]],
    ids=["sweep", "figure1"])
def test_file_writing_commands_load_no_openssl(tmp_path, argv,
                                               numpy_only_modules):
    # the manifest digest comes from the interpreter's built-in SHA-256;
    # compared with the numpy-only child, as for verify above
    import subprocess
    names = ("hashlib", "_hashlib")
    loaded = f"sorted(m for m in {names!r} if m in sys.modules)"
    code = ("import sys; from nhsta.cli import main; "
            f"code = main({argv + ['--out', str(tmp_path)]!r}); "
            f"print(code, {loaded})")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True)
    baseline = sorted(m for m in names if m in numpy_only_modules)
    assert done.stdout.splitlines()[-1] == f"0 {baseline}"
    assert list(tmp_path.glob(f"{argv[0]}_manifest.json"))


def test_digest_falls_back_to_hashlib(tmp_path, monkeypatch):
    from nhsta import cli
    argv = ["figure3", "--gamma", "0.3", "--steps", "200"]
    assert main(argv + ["--out", str(tmp_path / "builtin")]) == 0
    monkeypatch.setitem(sys.modules, "_sha2", None)
    monkeypatch.setitem(sys.modules, "_sha256", None)
    hashed = []
    monkeypatch.setattr(hashlib, "sha256",
                        lambda *data: hashed.append(data) or sha256(*data))
    digest = cli._sha256()
    digest.update(b"abc")
    assert digest.hexdigest() == sha256(b"abc").hexdigest()
    assert main(argv + ["--out", str(tmp_path / "fallback")]) == 0
    assert len(hashed) == 2  # the hasher above and the one table's

    def digests(name):
        manifest = json.loads(
            (tmp_path / name / "figure3_manifest.json").read_text())
        return manifest["files"]

    assert digests("fallback") == digests("builtin")


def fmt_cell(value) -> str:
    """One CSV cell formatted on its own: the reference for the bytes of the
    block format.  Text and integers (Python bools included) as ``str``
    writes them, any other number as ``%.17g`` of its float value."""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(value)
    return f"{float(value):.17g}"


def one_shot_csv(header, columns) -> bytes:
    """A whole CSV table, every cell formatted by :func:`fmt_cell`."""
    lines = [",".join(header)]
    lines += [",".join(map(fmt_cell, row)) for row in zip(*columns)]
    return ("\n".join(lines) + "\n").encode()


EDGE_FLOATS = [-0.0, np.inf, -np.inf, np.nan, 5e-324,
               1.7976931348623157e308, 0.1]


def every_cell_type(rows):
    """Header and columns of a table with one column per cell type a table
    may hold, each cycling through its own values."""
    def cycle(values):
        return [values[i % len(values)] for i in range(rows)]
    columns = {
        "label%s": cycle(["sub-critical", "50%", "%.17g"]),
        "flag": cycle([True, False]),
        "count": cycle([0, -3, 2 ** 70]),
        "count64": np.array(cycle([0, -7, 2 ** 63 - 1]), dtype=np.int64),
        "flag_np": np.array(cycle([True, False]), dtype=np.bool_),
        "x": cycle(EDGE_FLOATS),
        "y": np.array(cycle(EDGE_FLOATS[::-1]), dtype=np.float64),
    }
    return list(columns), list(columns.values())


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("rows", [0, 1, CSV_BLOCK_ROWS + 1],
                         ids=["header-only", "one-row", "block-plus-one"])
def test_every_cell_type_is_written_as_cell_by_cell(tmp_path, fmt, rows):
    # the CSV bytes are those of each cell formatted on its own; the JSON
    # bytes those of json.dumps of every number but a bool made a float
    header, columns = every_cell_type(rows)
    cfg = build_config(out=str(tmp_path), format=fmt)
    out = OutputSet(cfg, "cells")
    path = out.emit("cells", header, columns)
    if fmt == "csv":
        want = one_shot_csv(header, columns)
    else:
        table = [[v if isinstance(v, (str, bool)) else float(v) for v in row]
                 for row in zip(*columns)]
        want = (json.dumps({"columns": header, "rows": table}, indent=1)
                + "\n").encode()
    assert path.read_bytes() == want
    assert out.files == [{"path": f"cells.{fmt}",
                          "sha256": sha256(want).hexdigest()}]


class TestStreamedTables:
    """A CSV table is formatted, written and hashed in blocks of rows; its
    bytes and digest are those of the whole table encoded at once."""

    HEADER = ["t", "x", "label"]

    @staticmethod
    def columns(rows):
        t = np.linspace(-1.0, 1.0, rows)
        return [t, np.sin(7.0 * t) * 1e-3, ["sub-critical"] * rows]

    @pytest.mark.parametrize("blocks", [0, 1, 2, 2.5],
                             ids=["header-only", "one-block", "two-blocks",
                                  "longer"])
    def test_blocks_equal_the_one_shot_table(self, tmp_path, monkeypatch,
                                             blocks):
        from nhsta import cli
        cfg = build_config(out=str(tmp_path))
        rows = int(blocks * cli.CSV_BLOCK_ROWS)
        columns = self.columns(rows)
        writes = []
        original = cli._write

        def counted(path, parts, what, digest=None):
            parts = list(parts)
            writes.append([len(part) for part in parts])
            return original(path, parts, what, digest)

        monkeypatch.setattr(cli, "_write", counted)
        out = cli.OutputSet(cfg, "stream")
        path = out.emit("table", self.HEADER, columns)
        want = one_shot_csv(self.HEADER, columns)
        assert path.read_bytes() == want
        assert out.files == [{"path": "table.csv",
                              "sha256": sha256(want).hexdigest()}]
        # a whole number of blocks leaves no empty write behind
        assert len(writes[0]) == max(1, -(-rows // cli.CSV_BLOCK_ROWS))
        assert all(writes[0])

    def test_emit_peak_does_not_grow_with_the_rows(self, tmp_path):
        import tracemalloc
        from nhsta import cli
        cfg = build_config(out=str(tmp_path))
        out = cli.OutputSet(cfg, "stream")

        def peak(rows):
            columns = self.columns(rows)
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                out.emit(f"rows{rows}", self.HEADER, columns)
                return tracemalloc.get_traced_memory()[1] - start
            finally:
                tracemalloc.stop()

        assert peak(50_000) <= 1.5 * peak(5_000)


@pytest.mark.parametrize("command", ["verify", "figure3"])
def test_one_shortcut_run_alive_at_a_time(tmp_path, command):
    # each decay rate's run is freed before the next is built, so a second
    # decay rate adds nothing to the traced peak
    import tracemalloc
    from nhsta.cli import _verify_checks, cmd_figure3
    call = {"verify": lambda cfg: list(_verify_checks(cfg)),
            "figure3": cmd_figure3}[command]

    def peak(gammas):
        cfg = build_config(gamma=gammas, out=str(tmp_path / gammas))
        tracemalloc.start()
        try:
            call(cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak("0.3,1") <= 1.05 * peak("0.3")


@pytest.mark.parametrize("unbuffered", ["1", None])
def test_closed_stdout_exits_without_traceback(tmp_path, unbuffered):
    import os
    import subprocess
    import sys
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered  # each print writes at once
    proc = subprocess.Popen(
        [sys.executable, "-m", "nhsta.cli", "verify", "--gamma", "0.3",
         "--out", str(tmp_path)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()  # the reader is gone before the first write
    stderr = proc.stderr.read()
    assert proc.wait(timeout=120) == 1
    assert b"Traceback" not in stderr
    assert b"BrokenPipeError" not in stderr


def test_closed_stdout_leaks_no_descriptor(tmp_path, monkeypatch):
    import os
    fds = Path("/proc/self/fd")
    if not fds.is_dir():
        pytest.skip("no /proc/self/fd to count descriptors")
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the first write
    with open(write_end, "w") as stdout:
        monkeypatch.setattr(sys, "stdout", stdout)
        before = len(list(fds.iterdir()))
        status = main(["verify", "--gamma", "0.3", "--out", str(tmp_path)])
        assert (status, len(list(fds.iterdir()))) == (1, before)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("command", [c for c in COMMANDS if c != "verify"])
def test_manifest_lists_files_with_checksums(tmp_path, command, fmt):
    assert main([command, "--gamma", "0.3", "--steps", "1000", "--format", fmt,
                 "--out", str(tmp_path)]) == 0
    manifest_name = f"{command}_manifest.json"
    manifest = json.loads((tmp_path / manifest_name).read_text())
    written = sorted(p.name for p in tmp_path.iterdir() if p.name != manifest_name)
    assert written
    assert sorted(entry["path"] for entry in manifest["files"]) == written
    assert all(name.endswith(f".{fmt}") for name in written)
    for entry in manifest["files"]:
        digest = sha256((tmp_path / entry["path"]).read_bytes()).hexdigest()
        assert digest == entry["sha256"]
    for run in manifest["runs"]:
        assert run.get("convergence", 0.0) <= 1e-7


class TestProcessTuning:
    SWEEP = ["sweep", "--gamma", "0.3", "--steps", "200", "--policy",
             "hermitian-realizable,naive-cd,general-omega-zero",
             "--initial-state", "eigen-plus,bare-ground"]

    def sweep_bytes(self, out):
        status = main(self.SWEEP + ["--out", str(out)])
        return status, (out / "sweep.csv").read_bytes()

    @staticmethod
    def child(code):
        """What a fresh interpreter running ``code`` prints, stripped."""
        import subprocess
        import sys
        return subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, check=True).stdout.strip()

    def test_import_freezes_nothing(self):
        code = "import nhsta, nhsta.cli, gc; print(gc.get_freeze_count())"
        assert self.child(code) == "0"

    def test_import_makes_no_collector_pass(self):
        code = ("import gc\n"
                "passes = []\n"
                "gc.callbacks.append(lambda phase, info: passes.append(phase))\n"
                "import nhsta\n"
                "print(passes.count('start'))")
        assert self.child(code) == "0"

    @pytest.mark.parametrize("setup", ["", "gc.disable()",
                                       "gc.set_threshold(500, 5, 5)"])
    def test_import_leaves_the_collector_as_found(self, setup):
        code = (f"import gc\n{setup}\n"
                "before = gc.isenabled(), gc.get_threshold()\n"
                "import nhsta\n"
                "print(before == (gc.isenabled(), gc.get_threshold()),"
                " gc.get_freeze_count())")
        assert self.child(code) == "True 0"

    def test_import_keeps_a_callers_frozen_objects(self):
        code = ("import gc\n"
                "gc.freeze()\n"
                "frozen = gc.get_freeze_count()\n"
                "import nhsta\n"
                "print(frozen > 0, gc.get_freeze_count() == frozen)")
        assert self.child(code) == "True True"

    def test_failed_import_reenables_the_collector(self):
        code = ("import gc, sys\n"
                "sys.modules['nhsta.synthesis'] = None\n"
                "try:\n"
                "    import nhsta\n"
                "except ImportError:\n"
                "    print(gc.isenabled())")
        assert self.child(code) == "True"

    def test_child_process_sweep_matches_in_process(self, tmp_path):
        import subprocess
        import sys
        code = ("import gc, sys; from nhsta.cli import main; "
                "status = main(sys.argv[1:]); "
                "print(status, gc.get_freeze_count() > 0)")
        done = subprocess.run(
            [sys.executable, "-c", code] + self.SWEEP
            + ["--out", str(tmp_path / "child")],
            capture_output=True, text=True, check=True)
        status, data = self.sweep_bytes(tmp_path / "here")
        assert done.stdout.split() == [str(status), "True"]
        assert (tmp_path / "child" / "sweep.csv").read_bytes() == data

    def test_second_call_freezes_nothing_more(self, tmp_path):
        # one CLI process freezes once; a second main in the same process
        # must not freeze what its caller left alive
        import subprocess
        import sys
        argv = self.SWEEP + ["--out", str(tmp_path)]
        code = ("import gc, sys; from nhsta.cli import main; "
                f"main({argv!r}); first = gc.get_freeze_count(); "
                f"main({argv!r}); "
                "print(first > 0, gc.get_freeze_count() == first)")
        done = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, check=True)
        assert done.stdout.split() == ["True", "True"]

    def test_mallopt_gets_the_thresholds(self, tmp_path, monkeypatch):
        import nhsta.cli as cli
        calls = []

        def mallopt(param, value):
            calls.append((param, value))
            return 1

        libc = SimpleNamespace(mallopt=mallopt)
        monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: libc)
        self.sweep_bytes(tmp_path)
        assert calls == [(-1, 1 << 30), (-3, 32 << 20)]

    @pytest.mark.parametrize("missing", [OSError, AttributeError, TypeError])
    def test_missing_mallopt_is_skipped(self, tmp_path, monkeypatch, missing):
        import nhsta.cli as cli
        expected = self.sweep_bytes(tmp_path / "with")

        def cdll(name):
            raise missing("no C library handle or no mallopt")

        monkeypatch.setattr(cli.ctypes, "CDLL", cdll)
        assert self.sweep_bytes(tmp_path / "without") == expected


class TestParser:
    """One parser: a command and the options every command shares, in
    either order."""

    OPTIONS = {"--config": "run.cfg", "--gamma": "0.5,2", "--steps": "123",
               "--t-final": "2.5", "--t0": "-1.5", "--omega0": "1.25",
               "--delta0": "8", "--tau": "0.75", "--policy": "naive-cd",
               "--initial-state": "bare-ground", "--pulse-file": "p.csv",
               "--out": "outdir", "--format": "json"}
    EXPECTED = {"gamma": "0.5,2", "steps": 123, "t_final": 2.5, "t0": -1.5,
                "omega0": 1.25, "delta0": 8.0, "tau": 0.75,
                "policy": "naive-cd", "initial_state": "bare-ground",
                "pulse_file": "p.csv", "out": "outdir", "format": "json"}

    def forwarded(self, monkeypatch, argv):
        """(config path, overrides) that main hands to build_config."""
        import nhsta.cli as cli
        seen = []

        def build_config(config_path=None, **overrides):
            seen.append((config_path, overrides))
            raise ConfigError("stop before the command")

        monkeypatch.setattr(cli, "build_config", build_config)
        assert main(argv) == 2
        return seen[0]

    @pytest.mark.parametrize("command", COMMANDS)
    def test_every_option_reaches_build_config(self, monkeypatch, command):
        options = [x for item in self.OPTIONS.items() for x in item]
        for argv in ([command] + options, options + [command]):
            assert self.forwarded(monkeypatch, argv) == ("run.cfg",
                                                         self.EXPECTED)

    def test_absent_options_reach_build_config_as_none(self, monkeypatch):
        assert self.forwarded(monkeypatch, ["verify"]) == (
            None, dict.fromkeys(self.EXPECTED))

    @pytest.mark.parametrize("command", COMMANDS)
    def test_command_help_exits_zero(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("usage: nh-sta ")
        assert all(option in out for option in self.OPTIONS)

    @pytest.mark.parametrize("argv", [
        ["figure9"], ["sweep", "--gamma", "0.3", "--bogus", "1"], [],
        ["--bogus", "verify"], ["verify", "sweep"]],
        ids=["unknown-command", "unknown-option", "no-command",
             "unknown-option-first", "two-commands"])
    def test_bad_command_line_exits_two_with_usage(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith("usage: nh-sta ")
        assert err[-1].startswith("nh-sta: error: ")

    def test_options_before_the_command(self, tmp_path):
        options = ["--gamma", "0.3", "--steps", "200"]
        assert main(options + ["sweep", "--out", str(tmp_path / "a")]) == 0
        assert main(["sweep"] + options + ["--out", str(tmp_path / "b")]) == 0
        assert ((tmp_path / "a" / "sweep.csv").read_bytes()
                == (tmp_path / "b" / "sweep.csv").read_bytes())


class TestConfig:
    def test_file_parsing_with_comments(self, tmp_path):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text(
            "# experiment\nomega0 = 1.0\ngamma = 0.1, 0.3, 1.0  # rates\n"
            "steps = 2000\nformat = json\n")
        values = parse_config_file(str(cfg_file))
        assert values["gamma_list"] == (0.1, 0.3, 1.0)
        assert values["steps"] == 2000
        assert values["format"] == "json"

    def test_unknown_key_rejected(self, tmp_path):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text("omega_zero = 1.0\n")
        with pytest.raises(ConfigError):
            parse_config_file(str(cfg_file))

    def test_override_precedence(self, tmp_path, monkeypatch):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text("out = from_file\nsteps = 1000\n")
        monkeypatch.setenv("NH_STA_OUT", "from_env")
        cfg = build_config(str(cfg_file))
        assert cfg.out == "from_env"
        cfg = build_config(str(cfg_file), out="from_flag")
        assert cfg.out == "from_flag"
        assert cfg.steps == 1000

    def test_small_grids_rejected(self):
        cfg = build_config(steps=50)
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_window_defaults_symmetric(self):
        cfg = build_config(t_final=2.5)
        assert cfg.window == (-2.5, 2.5)


class TestOptionTable:
    """``config.OPTIONS`` is the one source of the flags, the config-file
    keys, the configuration's fields and the manifest's echo."""

    TEXTS = {"omega0": "1.25", "delta0": "8", "tau": "0.75", "t0": "-1.5",
             "t_final": "2.5", "steps": "123", "gamma": "0.5, 2",
             "policy": "naive-cd", "initial_state": "bare-ground",
             "out": "outdir", "format": "json", "pulse_file": "p.csv"}

    @pytest.mark.parametrize("name", [name for name, *_ in OPTIONS])
    def test_flag_and_config_line_give_equal_fields(self, tmp_path,
                                                    monkeypatch, name):
        monkeypatch.delenv("NH_STA_OUT", raising=False)
        text = self.TEXTS[name]
        args = vars(build_parser().parse_args(
            ["verify", "--" + name.replace("_", "-"), text]))
        del args["command"]
        from_flag = build_config(args.pop("config"), **args)
        cfg_file = tmp_path / "one.cfg"
        cfg_file.write_text(f"{name} = {text}\n")
        from_file = build_config(str(cfg_file))
        assert ([getattr(from_flag, f) for f in ExperimentConfig.FIELDS]
                == [getattr(from_file, f) for f in ExperimentConfig.FIELDS])
        # the value was set, not left at its default
        assert vars(from_flag) != vars(ExperimentConfig())

    def test_every_option_has_a_sample_text(self):
        assert list(self.TEXTS) == [name for name, *_ in OPTIONS]

    def test_manifest_echoes_the_fields_in_order(self, tmp_path):
        assert ExperimentConfig.FIELDS == (
            "omega0", "delta0", "tau", "t0", "t_final", "steps", "gamma_list",
            "policy", "initial_state", "out", "format", "pulse_file")
        assert main(["figure2", "--gamma", "0.3", "--steps", "200",
                     "--out", str(tmp_path)]) == 0
        manifest = json.loads((tmp_path / "figure2_manifest.json").read_text())
        assert list(manifest["config"]) == list(ExperimentConfig.FIELDS)
        assert manifest["config"]["gamma_list"] == [0.3]
        assert manifest["config"]["steps"] == 200

    def test_unknown_format_exits_config(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["figure1", "--format", "xml", "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "configuration error: format must be one of ('csv', 'json')"]
        assert not out.exists()

    def test_steps_numpy_cannot_size_exit_config(self, tmp_path, capsys):
        # numpy refuses a 4 * 10**20 + 1 sample grid before allocating
        out = tmp_path / "out"
        assert main(["figure2", "--gamma", "0.3", "--steps", str(10**20),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("configuration error: steps must be <= ")
        assert not out.exists()

    def test_unknown_names_are_refused(self):
        with pytest.raises(ConfigError, match="unknown option 'gamma_list'"):
            build_config(gamma_list=(0.3,))
        with pytest.raises(ConfigError, match="unknown option 'gamma'"):
            ExperimentConfig(gamma=(0.3,))


class TestFigure1:
    def test_branch_trajectories(self, tmp_path):
        assert main(["figure1", "--out", str(tmp_path), "--steps", "2000"]) == 0
        sub = read_csv(tmp_path / "figure1_gamma0.3.csv")
        sup = read_csv(tmp_path / "figure1_gamma3.csv")
        assert np.min(sub["re_z"]) > 0.0
        mid = len(sup["t"]) // 2
        assert sup["t"][mid] == 0.0
        assert sup["re_z"][mid] < 0.0
        assert sup["im_z"][mid] == 0.0
        assert sub["regime"][0] == "sub-critical"
        assert sup["regime"][0] == "super-critical"

    def test_odd_symmetry_of_imaginary_part(self, tmp_path):
        assert main(["figure1", "--out", str(tmp_path), "--steps", "2000",
                     "--gamma", "0.3"]) == 0
        data = read_csv(tmp_path / "figure1_gamma0.3.csv")
        imz = data["im_z"]
        assert np.max(np.abs(imz + imz[::-1])) < 1e-10


class TestFigure2:
    def test_angle_series_and_lossless_control(self, tmp_path):
        assert main(["figure2", "--out", str(tmp_path), "--steps", "2000"]) == 0
        sub = read_csv(tmp_path / "figure2_gamma0.3.csv")
        ctl = read_csv(tmp_path / "figure2_gamma0.csv")
        assert abs(sub["re_theta"][0]) <= 0.15
        assert abs(sub["re_theta"][-1] - np.pi) <= 0.15
        assert np.max(np.abs(ctl["im_theta"])) <= 1e-12

    def test_supercritical_real_variation_small(self, tmp_path):
        assert main(["figure2", "--out", str(tmp_path), "--steps", "2000",
                     "--gamma", "3"]) == 0
        sup = read_csv(tmp_path / "figure2_gamma3.csv")
        assert np.max(np.abs(sup["re_theta"] - sup["re_theta"][0])) < 0.5

    def test_zero_decay_takes_the_regime_of_the_configured_omega0(self,
                                                                  tmp_path):
        # Omega_R = 0 on the whole grid: the pulse itself has no regime
        ts = np.linspace(-1, 1, 200)
        table = np.column_stack([ts, np.zeros_like(ts), 9.0 * np.tanh(ts) + 20])
        pulse_file = tmp_path / "pulse.txt"
        np.savetxt(pulse_file, table)
        assert main(["figure2", "--gamma", "0", "--steps", "1000",
                     "--pulse-file", str(pulse_file),
                     "--out", str(tmp_path)]) == 0
        data = read_csv(tmp_path / "figure2_gamma0.csv")
        assert np.max(np.abs(data["re_theta"])) == 0.0
        assert np.max(np.abs(data["im_theta"])) == 0.0


class TestFigure3:
    def test_population_series(self, tmp_path):
        assert main(["figure3", "--out", str(tmp_path)]) == 0
        finals = []
        for gamma in ("0.1", "0.3", "1"):
            data = read_csv(tmp_path / f"figure3_gamma{gamma}.csv")
            assert np.max(data["g_minus_sq"]) <= 1e-10
            assert np.min(data["g_plus_sq"]) >= 0.95
            assert np.max(data["g_plus_sq"]) <= 1.05
            finals.append(data["c_plus_sq"][-1])
        assert finals[0] > finals[1] > finals[2]

    def test_determinism_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        argv = ["figure3", "--gamma", "0.3", "--steps", "1000"]
        assert main(argv + ["--out", str(out1)]) == 0
        assert main(argv + ["--out", str(out2)]) == 0
        f1 = (out1 / "figure3_gamma0.3.csv").read_bytes()
        f2 = (out2 / "figure3_gamma0.3.csv").read_bytes()
        assert f1 == f2

    def test_uncertified_run_exits_one_and_still_writes(self, tmp_path,
                                                       capsys):
        assert main(["figure3", "--gamma", "2.1", "--out", str(tmp_path)]) == 1
        data = read_csv(tmp_path / "figure3_gamma2.1.csv")
        assert len(data["t"]) == 4001
        manifest = json.loads((tmp_path / "figure3_manifest.json").read_text())
        assert [run["certified"] for run in manifest["runs"]] == [False]
        assert [e["path"] for e in manifest["files"]] == ["figure3_gamma2.1.csv"]
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert_uncertified_line(err[0], "2.1", "hermitian-realizable",
                                "eigen-plus", manifest["runs"][0])

    def test_window_after_the_crossing_keeps_g_plus_at_one(self, tmp_path,
                                                          capsys):
        # Delta > 0 on the whole window: theta starts near 0, so |+> is the
        # bare ground state and E_+ the root near -Delta/2, which the
        # sub-critical cut of sqrt(Z) would call E_-
        flags = ["--t0", "0.5", "--t-final", "1", "--gamma", "0.3,1.9"]
        assert main(["figure3", *flags, "--out", str(tmp_path)]) == 0
        for gamma in ("0.3", "1.9"):
            data = read_csv(tmp_path / f"figure3_gamma{gamma}.csv")
            assert abs(data["g_plus_sq"][-1] - 1.0) <= 1e-6, gamma
        assert main(["verify", *flags, "--out", str(tmp_path)]) == 0
        assert "FAIL" not in capsys.readouterr().out


class TestFigure4:
    def test_inversion_series(self, tmp_path):
        assert main(["figure4", "--out", str(tmp_path)]) == 0
        data = read_csv(tmp_path / "figure4_gamma1.csv")
        assert data["p0_renorm"][-1] <= 0.01
        assert data["p1"][-1] > 0.0
        assert data["p0_plus_p1"][0] == pytest.approx(
            data["p0"][0] + data["p1"][0])
        # initial bare-ground weight equals the eigenstate overlap
        from conftest import ae_pulse
        from nhsta.grids import TimeGrid
        from nhsta.two_level import mixing_angle_path
        path = mixing_angle_path(ae_pulse(1.0),
                                 TimeGrid(-1.0, 1.0, 4000))
        overlap = np.abs(np.cos(path.theta[0] / 2.0)) ** 2
        assert data["p0"][0] == pytest.approx(overlap, abs=1e-12)
        assert data["p0"][0] > 0.95

    def test_odd_step_count_is_certified(self, tmp_path):
        assert main(["figure4", "--steps", "1001", "--out", str(tmp_path)]) == 0
        manifest = json.loads((tmp_path / "figure4_manifest.json").read_text())
        assert manifest["runs"][0]["convergence"] <= 1e-7


class TestSweep:
    def test_rows_match_figure_pipelines_bitwise(self, tmp_path):
        fig_dir, sweep_dir = tmp_path / "fig", tmp_path / "sweep"
        assert main(["figure3", "--out", str(fig_dir)]) == 0
        assert main(["figure4", "--out", str(fig_dir)]) == 0
        assert main(["sweep", "--gamma", "0.1,0.3,1", "--out",
                     str(sweep_dir)]) == 0
        rows = read_csv(sweep_dir / "sweep.csv")
        fig3 = json.loads((fig_dir / "figure3_manifest.json").read_text())
        for i, meta in enumerate(fig3["runs"]):
            assert rows["g_plus_sq_final"][i] == meta["g_plus_sq_final"]
            assert rows["p0_renorm_final"][i] == meta["p0_renorm_final"]
            assert rows["max_abs_g_minus"][i] == meta["max_abs_g_minus"]
        fig4 = json.loads((fig_dir / "figure4_manifest.json").read_text())
        assert rows["p0_renorm_final"][2] == fig4["runs"][0]["p0_renorm_final"]
        assert rows["certified"] == ["True"] * 3
        sweep = json.loads((sweep_dir / "sweep_manifest.json").read_text())
        assert [run["certified"] for run in sweep["runs"]] == [True] * 3

    def test_rows_form_no_closed_form(self, tmp_path, monkeypatch):
        # only verify checks g_+ against its closed form, so a sweep over
        # every policy and state never forms it
        callers = closed_form_callers(monkeypatch)
        assert main(["sweep", "--gamma", "1", "--policy",
                     "hermitian-realizable,naive-cd,general-omega-zero",
                     "--initial-state", "eigen-plus,bare-ground",
                     "--out", str(tmp_path)]) == 0
        assert len(read_csv(tmp_path / "sweep.csv")["policy"]) == 6
        assert callers == []

    def test_uncertified_rows_flagged(self, tmp_path, capsys):
        # just above gamma = 2*omega0 the default grid under-resolves the
        # supplement: the rows are still written, but flagged, and the
        # exit status is 1
        assert main(["sweep", "--gamma", "0.3,2.1", "--out", str(tmp_path)]) == 1
        rows = read_csv(tmp_path / "sweep.csv")
        assert rows["certified"] == ["True", "False"]
        assert rows["convergence"][1] > 1e-7
        runs = json.loads((tmp_path / "sweep_manifest.json").read_text())["runs"]
        assert [run["certified"] for run in runs] == [True, False]
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert_uncertified_line(err[0], "2.1", "hermitian-realizable",
                                "eigen-plus", runs[1])

    def test_supercritical_row_emitted(self, tmp_path):
        # 2000 steps certify gamma = 3 (1000 leave a step-halving gap of
        # about 1.2e-7, above the bound)
        assert main(["sweep", "--gamma", "3", "--steps", "2000",
                     "--initial-state", "eigen-plus,bare-ground",
                     "--out", str(tmp_path)]) == 0
        rows = read_csv(tmp_path / "sweep.csv")
        assert rows["regime"] == ["super-critical", "super-critical"]
        assert rows["initial_state"] == ["eigen-plus", "bare-ground"]
        assert rows["certified"] == ["True", "True"]

    def test_policy_cross_product(self, tmp_path):
        assert main(["sweep", "--gamma", "0.3", "--steps", "1000",
                     "--policy", "hermitian-realizable,naive-cd,general-omega-zero",
                     "--out", str(tmp_path)]) == 0
        rows = read_csv(tmp_path / "sweep.csv")
        assert rows["policy"] == ["hermitian-realizable", "naive-cd",
                                  "general-omega-zero"]
        # every leak-cancelling policy traps the reference amplitude
        assert np.max(rows["max_abs_g_minus"]) <= 1e-5
        assert rows["max_residual"][1] == 0.0  # naive-cd cancels exactly
        assert np.max(np.abs(rows["g_plus_sq_final"] - 1.0)) <= 1e-3

    def test_empty_gamma_list_is_config_error(self, tmp_path):
        assert main(["sweep", "--out", str(tmp_path)]) == 2

    def test_decay_rates_that_print_alike_keep_their_rows(self, tmp_path):
        # a sweep row carries the full decay rate, so nothing collides
        assert main(["sweep", "--gamma", "0.1,0.1000001", "--steps", "1000",
                     "--out", str(tmp_path)]) == 0
        rows = read_csv(tmp_path / "sweep.csv")
        assert list(rows["gamma"]) == [0.1, 0.1000001]

    def test_json_tables_of_every_policy_are_valid_json(self, tmp_path):
        # every row, naive-cd's included, holds finite numbers: NaN or
        # Infinity would make the files unreadable for strict JSON parsers
        assert main(["sweep", "--gamma", "0.3", "--steps", "1000",
                     "--policy", "hermitian-realizable,naive-cd,general-omega-zero",
                     "--format", "json", "--out", str(tmp_path)]) == 0

        def refuse(constant):
            raise ValueError(f"not JSON: {constant}")

        for name in ("sweep.json", "sweep_manifest.json"):
            json.loads((tmp_path / name).read_text(), parse_constant=refuse)
        rows = json.loads((tmp_path / "sweep.json").read_text())["rows"]
        assert [row[1] for row in rows] == ["hermitian-realizable",
                                            "naive-cd", "general-omega-zero"]


class TestExitCodes:
    @pytest.mark.parametrize("command",
                             ["figure1", "figure2", "figure3", "figure4"])
    def test_decay_rates_sharing_a_table_name_exit_config(self, tmp_path,
                                                           capsys, command):
        # both rates print as 0.1 at %g, so the second table would overwrite
        # the first under one file name
        out = tmp_path / "out"
        assert main([command, "--gamma", "0.1,0.1000001", "--steps", "100",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"configuration error: decay rates 0.1 and 0.1000001 would both "
            f"write {command}_gamma0.1.csv"]
        assert not out.exists()

    @pytest.mark.parametrize("command, flag, text", [
        ("figure3", "--policy", "naive-cd,hermitian-realizable"),
        ("figure4", "--initial-state", "eigen-plus,bare-ground")])
    def test_second_policy_or_state_creates_no_output_directory(
            self, tmp_path, capsys, command, flag, text):
        out = tmp_path / "o"
        assert main([command, flag, text, "--steps", "100",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(
            "configuration error: this command takes a single ")
        assert not out.exists()

    @pytest.mark.parametrize("flag, text, message", [
        ("--policy", "naive-cd,hermitian-realizable,naive-cd",
         "policy list repeats 'naive-cd'"),
        ("--initial-state", "bare-ground, bare-ground",
         "initial state list repeats 'bare-ground'"),
        ("--gamma", "0.3,1,0.30", "gamma list repeats 0.3")],
        ids=["policy", "initial-state", "gamma"])
    def test_repeated_list_item_exits_config(self, tmp_path, capsys, flag,
                                             text, message):
        # a repeat would build and write the same rows again
        out = tmp_path / "out"
        args = {"--gamma": "0.3,1", "--policy": "naive-cd",
                "--initial-state": "eigen-plus", flag: text}
        argv = ["sweep", "--steps", "200", "--out", str(out)]
        for item in args.items():
            argv += item
        assert main(argv) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"configuration error: {message}"]
        assert not out.exists()

    def test_negative_zero_decay_rate_is_named_as_zero(self, tmp_path,
                                                       capsys):
        # -0 is read as 0 where a gamma list is parsed, so it names its
        # table, row and checks as 0 does, and repeats 0
        steps = ["--steps", "400"]
        assert main(["figure3", "--gamma=-0", *steps,
                     "--out", str(tmp_path / "f")]) == 0
        assert sorted(p.name for p in (tmp_path / "f").glob("*.csv")) == [
            "figure3_gamma0.csv"]
        assert main(["sweep", "--gamma=-0,1", "--policy", "naive-cd", *steps,
                     "--out", str(tmp_path / "s")]) == 0
        rows = (tmp_path / "s" / "sweep.csv").read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["0", "1"]
        main(["verify", "--gamma=-0", *steps, "--out", str(tmp_path / "v")])
        out = capsys.readouterr().out
        assert "[gamma=0]" in out and "[gamma=-0]" not in out
        assert main(["sweep", "--gamma", "0,-0", *steps,
                     "--out", str(tmp_path / "r")]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "configuration error: gamma list repeats 0.0"]
        assert not (tmp_path / "r").exists()

    def test_critical_decay_rate_exits_numerical(self, tmp_path):
        assert main(["figure3", "--gamma", "2.0", "--out", str(tmp_path)]) == 3

    def test_bad_config_file_exits_config(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("nonsense_key = 3\n")
        assert main(["figure1", "--config", str(bad),
                     "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("line, message", [
        ("gamma = 0.3,abc", "bad gamma list '0.3,abc': could not convert "
                            "string to float: 'abc'"),
        ("steps = 2x", "bad value for steps: invalid literal for int() "
                       "with base 10: '2x'")], ids=["gamma", "steps"])
    def test_bad_config_value_names_its_file_and_line(self, tmp_path, capsys,
                                                      line, message):
        bad = tmp_path / "bad.cfg"
        bad.write_text(f"steps = 200\n{line}\n")
        out = tmp_path / "out"
        assert main(["figure3", "--config", str(bad), "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"configuration error: {bad}:2: {message}"]
        assert not out.exists()

    def test_bad_gamma_flag_keeps_its_message(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["figure3", "--gamma", "0.3,abc", "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "configuration error: bad gamma list '0.3,abc': could not "
            "convert string to float: 'abc'"]
        assert not out.exists()

    def test_inverted_window_exits_config(self, tmp_path):
        assert main(["figure1", "--t0", "2.0", "--t-final", "1.0",
                     "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("flag", ["--omega0", "--delta0", "--tau",
                                      "--gamma", "--t-final"])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_non_finite_number_exits_config(self, tmp_path, capsys, command,
                                            flag, value):
        # a later --gamma overrides the first
        assert main([command, "--gamma", "0.3", "--steps", "100", flag, value,
                     "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("configuration error: ")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("column", [1, 2])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_non_finite_pulse_file_entry_exits_config(self, tmp_path, capsys,
                                                      command, column, value):
        ts = np.linspace(-1, 1, 50)
        table = np.column_stack([ts, 1.0 / np.cosh(ts), 9.0 * np.tanh(ts)])
        table[20, column] = value
        pulse_file = tmp_path / "pulse.txt"
        np.savetxt(pulse_file, table)
        out = tmp_path / "out"
        assert main([command, "--gamma", "0.3", "--steps", "100",
                     "--pulse-file", str(pulse_file), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("configuration error: ")
        assert list(out.glob("*")) == []

    @pytest.mark.parametrize("first_line, cell", [
        ("t,om,dl\n", "0.5"), ("", "abc")], ids=["header-row", "non-numeric"])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_unparseable_pulse_file_exits_config(self, tmp_path, capsys,
                                                 command, first_line, cell):
        pulse_file = tmp_path / "pulse.csv"
        pulse_file.write_text(first_line + f"-1,0.4,-7\n0,{cell},0\n1,0.4,7\n")
        out = tmp_path / "out"
        assert main([command, "--gamma", "0.3", "--steps", "100",
                     "--pulse-file", str(pulse_file), "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"configuration error: pulse file {str(pulse_file)!r} holds a "
            f"non-numeric cell or a header row"]
        assert list(out.glob("*")) == []

    @pytest.mark.parametrize("source, text", [
        ("--gamma", ""), ("--gamma", " , "), ("--config", "gamma =\n")],
        ids=["empty-flag", "commas-only", "empty-config-line"])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_explicit_empty_gamma_list_exits_config(self, tmp_path, capsys,
                                                    command, source, text):
        # an empty list would check and write nothing, then exit 0
        value = text
        if source == "--config":
            value = str(tmp_path / "exp.cfg")
            Path(value).write_text(text)
        out = tmp_path / "out"
        assert main([command, source, value, "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "configuration error: gamma list must not be empty"]
        assert list(out.glob("*")) == []

    @pytest.mark.parametrize("flag, what", [
        ("--policy", "policy"), ("--initial-state", "initial state")])
    @pytest.mark.parametrize("text", [",", " , ", ""],
                             ids=["comma", "spaced-comma", "empty"])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_empty_policy_or_initial_state_list_exits_config(
            self, tmp_path, capsys, command, flag, what, text):
        # sweep divided its shared build time by the empty product
        out = tmp_path / "out"
        assert main([command, "--gamma", "0.3", "--steps", "100", flag, text,
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"configuration error: {what} list must not be empty"]
        assert list(out.glob("*")) == []

    @pytest.mark.parametrize("text", ["", "\n\n", "# t, Omega_R, Delta\n"],
                             ids=["empty", "blank-lines", "comment-only"])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_pulse_file_without_rows_exits_config(self, tmp_path, capsys,
                                                  recwarn, command, text):
        pulse_file = tmp_path / "pulse.csv"
        pulse_file.write_text(text)
        out = tmp_path / "out"
        assert main([command, "--gamma", "0.3", "--steps", "100",
                     "--pulse-file", str(pulse_file), "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"configuration error: pulse file {str(pulse_file)!r} holds no "
            f"rows"]
        assert [str(w.message) for w in recwarn] == []  # numpy's loadtxt
        assert list(out.glob("*")) == []

    @pytest.mark.parametrize("flag", ["--pulse-file", "--config"])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_directory_as_input_file_exits_config(self, tmp_path, capsys,
                                                  command, flag):
        folder = tmp_path / "folder"
        folder.mkdir()
        out = tmp_path / "out"
        assert main([command, flag, str(folder), "--gamma", "0.3",
                     "--steps", "100", "--out", str(out)]) == 2
        kind = "pulse" if flag == "--pulse-file" else "config"
        assert capsys.readouterr().err.splitlines() == [
            f"configuration error: {kind} file {str(folder)!r} is not a file"]
        assert list(out.glob("*")) == []

    @pytest.mark.parametrize("flag", ["--pulse-file", "--config"])
    def test_unreadable_input_file_exits_config(self, tmp_path, capsys,
                                                monkeypatch, flag):
        def refused(*args, **kwargs):
            raise PermissionError(13, "Permission denied")

        if flag == "--pulse-file":
            monkeypatch.setattr(np, "loadtxt", refused)
        else:
            monkeypatch.setattr(Path, "read_text", refused)
        source = tmp_path / "input.txt"
        source.write_text("-1,1,-9\n1,1,9\n")
        out = tmp_path / "out"
        assert main(["figure1", flag, str(source), "--gamma", "0.3",
                     "--out", str(out)]) == 2
        kind = "pulse" if flag == "--pulse-file" else "config"
        assert capsys.readouterr().err.splitlines() == [
            f"configuration error: {kind} file {str(source)!r} cannot be read: "
            f"Permission denied"]
        assert not out.exists()

    @pytest.mark.parametrize("command", [c for c in COMMANDS if c != "verify"])
    def test_out_naming_a_file_exits_config(self, tmp_path, capsys, command):
        taken = tmp_path / "taken"
        taken.write_text("kept\n")
        assert main([command, "--gamma", "0.3", "--steps", "100",
                     "--out", str(taken)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"configuration error: cannot create output directory "
            f"{str(taken)!r}: File exists"]
        assert list(tmp_path.iterdir()) == [taken]
        assert taken.read_text() == "kept\n"

    @pytest.mark.parametrize("first, last", [(-0.5, 0.5), (-1.0, 0.9),
                                             (-0.9, 1.0)])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_pulse_file_not_covering_the_window_exits_config(
            self, tmp_path, capsys, command, first, last):
        # np.interp would hold the table's end values outside its range
        ts = np.linspace(first, last, 101)
        pulse_file = tmp_path / "pulse.csv"
        np.savetxt(pulse_file, np.column_stack(
            [ts, 1.0 / np.cosh(ts), 9.0 * np.tanh(ts)]), delimiter=",")
        out = tmp_path / "out"
        assert main([command, "--gamma", "0.3", "--steps", "100",
                     "--pulse-file", str(pulse_file), "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"configuration error: pulse file {str(pulse_file)!r} covers t in "
            f"[{first}, {last}], not the run window [-1.0, 1.0]"]
        assert list(out.glob("*")) == []

    @pytest.mark.parametrize("command", COMMANDS)
    def test_pulse_file_spline_driving_a_negative_rabi_frequency_exits_config(
            self, tmp_path, capsys, command):
        # every knot is >= 0.002, but the not-a-knot spline undershoots the
        # kinks: on the 4000-step run's quarter grid it dips to -0.0061,
        # first negative at t = -0.49325, where the run would drive with a
        # sign-flipped Omega_R
        ts = np.linspace(-1.0, 1.0, 41)
        omega = np.maximum(0.0, 2.0 / np.cosh(3.0 * ts) - 1.0) + 0.002
        pulse_file = tmp_path / "pulse.csv"
        np.savetxt(pulse_file, np.column_stack([ts, omega, 9.0 * np.tanh(ts)]),
                   delimiter=",")
        out = tmp_path / "out"
        assert main([command, "--gamma", "0.3", "--pulse-file",
                     str(pulse_file), "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"configuration error: pulse file {str(pulse_file)!r}: the spline "
            f"through its Omega_R is negative at t=-0.49325"]
        assert list(out.glob("*")) == []

    @pytest.mark.parametrize("rows", [1, 2, 3])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_pulse_file_with_fewer_than_four_rows_exits_config(
            self, tmp_path, capsys, command, rows):
        # a not-a-knot cubic spline needs four knots
        ts = np.linspace(-1.0, 1.0, rows)
        pulse_file = tmp_path / "pulse.csv"
        np.savetxt(pulse_file, np.column_stack(
            [ts, 1.0 / np.cosh(ts), 9.0 * np.tanh(ts)]), delimiter=",")
        out = tmp_path / "out"
        assert main([command, "--gamma", "0.3", "--steps", "100",
                     "--pulse-file", str(pulse_file), "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"configuration error: pulse file {str(pulse_file)!r} needs at "
            f"least 4 rows for a cubic spline, got {rows}"]
        assert list(out.glob("*")) == []

    @pytest.mark.parametrize("command", COMMANDS)
    def test_config_file_not_utf8_exits_config(self, tmp_path, capsys,
                                               command):
        config_file = tmp_path / "exp.cfg"
        config_file.write_bytes(b"\xff\xfegamma = 0.3\n")
        out = tmp_path / "out"
        assert main([command, "--config", str(config_file),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"configuration error: config file {str(config_file)!r} is not "
            f"UTF-8 text"]
        assert not out.exists()

    @pytest.mark.parametrize("command", [c for c in COMMANDS if c != "verify"])
    def test_directory_at_a_table_path_exits_config(self, tmp_path, capsys,
                                                    command):
        name = "sweep" if command == "sweep" else f"{command}_gamma0.3"
        table = tmp_path / f"{name}.csv"
        table.mkdir()
        assert main([command, "--gamma", "0.3", "--steps", "100",
                     "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"configuration error: cannot write table {str(table)!r}: "
            f"Is a directory")
        assert list(table.iterdir()) == []

    @pytest.mark.parametrize("command", [c for c in COMMANDS if c != "verify"])
    def test_directory_at_the_manifest_path_exits_config(self, tmp_path,
                                                         capsys, command):
        # the tables are written first; the manifest's failure is a
        # configuration error too, not a traceback with status 1
        manifest = tmp_path / f"{command}_manifest.json"
        manifest.mkdir()
        assert main([command, "--gamma", "0.3", "--steps", "100",
                     "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"configuration error: cannot write manifest {str(manifest)!r}: "
            f"Is a directory")
        assert list(manifest.iterdir()) == []
        assert len(list(tmp_path.glob("*.csv"))) == 1

    def test_pulse_file_on_a_wider_window_runs(self, tmp_path):
        ts = np.linspace(-2.0, 2.0, 401)
        pulse_file = tmp_path / "pulse.csv"
        np.savetxt(pulse_file, np.column_stack(
            [ts, 1.0 / np.cosh(ts), 9.0 * np.tanh(ts)]), delimiter=",")
        assert main(["figure1", "--gamma", "0.3", "--steps", "100",
                     "--t0", "-2", "--t-final", "1.5", "--pulse-file",
                     str(pulse_file), "--out", str(tmp_path)]) == 0

    def test_non_finite_omega0_names_the_value(self, tmp_path, capsys):
        # the finiteness checks run before classify_regime, which would
        # raise ValueError on NaN
        assert main(["figure3", "--omega0", "nan", "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            "configuration error: omega0 must be finite, got nan\n")

    @pytest.mark.parametrize(
        "error", [e for e in NhStaError.__subclasses__() if e is not ConfigError],
        ids=lambda e: e.__name__)
    def test_package_error_in_a_command_exits_numerical(self, tmp_path, capsys,
                                                        monkeypatch, error):
        from nhsta import cli

        def command(cfg):
            raise error("raised inside the command")

        monkeypatch.setitem(cli.COMMANDS, "figure1", command)
        assert main(["figure1", "--out", str(tmp_path)]) == 3
        assert capsys.readouterr().err.splitlines() == [
            f"numerical error: {error.__name__}: raised inside the command"]


    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("argv", [
        ["sweep", "--policy", "hermitian-realizable"],
        ["sweep", "--policy", "naive-cd"],
        ["sweep", "--policy", "general-omega-zero"],
        ["verify"],
    ], ids=["sweep-hermitian-realizable", "sweep-naive-cd",
            "sweep-general-omega-zero", "verify"])
    def test_overflowing_decay_rate_exits_numerical(self, tmp_path, capsys,
                                                    argv):
        # gamma^2 overflows the radicand: every policy stops at the first
        # sample with one line, no numpy warning and no traceback
        assert main(argv + ["--gamma", "1e308", "--out", str(tmp_path)]) == 3
        assert capsys.readouterr().err.splitlines() == [
            "numerical error: NonFinite: radicand not finite at t=-1"]

    @pytest.mark.filterwarnings("error")
    def test_overflowing_radicand_writes_no_figure1_row(self, tmp_path,
                                                        capsys):
        assert main(["figure1", "--gamma", "1e160", "--steps", "100",
                     "--out", str(tmp_path)]) == 3
        assert capsys.readouterr().err.splitlines() == [
            "numerical error: NonFinite: radicand not finite at t=-1"]
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("argv", [
        ["figure1", "--gamma", "1", "--tau", "1e-3"],
        ["figure2", "--gamma", "1", "--tau", "1e-3"],
        ["figure1", "--t-final", "800", "--steps", "1000"],
    ], ids=["figure1-short-tau", "figure2-short-tau", "figure1-long-window"])
    def test_sech_pulse_far_from_its_centre_warns_nothing(self, tmp_path,
                                                         capsys, argv):
        # past |t|/tau ~ 355 cosh (or its square) overflows to inf on the way
        # to sech's exact limit 0, which the tables hold
        assert main(argv + ["--out", str(tmp_path)]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("command", ["figure3", "figure4", "sweep",
                                         "verify"])
    def test_short_pulse_fails_its_certificate_not_its_gauge(
            self, tmp_path, capsys, command):
        # with tau = 1e-3, |dtheta| reaches 1.2e4 while Re[sin theta] and
        # Im[dtheta] ~ 1e-9 vanish together far from the centre: removable
        # on the rate's own scale.  4000 steps do not resolve the pulse, so
        # the run is flagged uncertified (status 1), never SinThetaSingular
        assert main([command, "--gamma", "1", "--tau", "1e-3",
                     "--out", str(tmp_path)]) == 1
        out, err = capsys.readouterr()
        if command == "verify":
            assert err == ""
            assert "FAIL  convergence[gamma=1]" in out
        else:
            assert err.splitlines() and all(
                line.startswith("uncertified: gamma=1 ")
                for line in err.splitlines())

    def test_vanishing_gauge_names_its_factor_and_time(self, tmp_path,
                                                       capsys):
        # exp(int Im E_-) underflows to 0 part-way through the window
        assert main(["figure3", "--gamma", "1000",
                     "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert err == ["numerical error: ZeroGauge: f_minus vanished at "
                       "t=0.4905"]

    def test_zero_drive_where_sin_theta_vanishes_exits_numerical(
            self, tmp_path, capsys):
        # Omega_R = 0 at t = -1 makes sin(theta) = 0 while dtheta is not, so
        # no diagonal split delta = -i*dtheta/sin(theta) cancels the leak
        ts = np.linspace(-1.0, 1.0, 401)
        pulse_file = tmp_path / "ramp.csv"
        np.savetxt(pulse_file, np.column_stack([ts, 0.5 * (1.0 + ts), 9.0 * ts]),
                   delimiter=",")
        assert main(["figure3", "--gamma", "0.3", "--policy",
                     "general-omega-zero", "--pulse-file", str(pulse_file),
                     "--out", str(tmp_path / "out")]) == 3
        assert capsys.readouterr().err.splitlines() == [
            "numerical error: InconsistentChoice: sin(theta) ~ 0 with lam != 0 "
            "at t=-1: diagonal split underdetermined"]


class TestVerify:
    def test_default_checks_pass(self, tmp_path, capsys):
        assert main(["verify", "--gamma", "0.3", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "FAIL" not in out
        assert "closed-form-vs-ode" in out

    def test_default_gammas_include_super_critical(self, tmp_path, capsys):
        assert main(["verify", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "PASS  convergence[gamma=3]" in out
        assert "PASS  closed-form-vs-ode[gamma=3]" in out

    def test_angle_rate_follows_the_frame_coupling(self, tmp_path, capsys):
        # one angle-rate line per decay rate, right after its frame check,
        # against the fixed bound 1e-8; gamma = 1.99 is not resolved by the
        # quarter grid of 4000 steps and fails it (its gap fails as well)
        assert main(["verify", "--gamma", "0.3,1.99",
                     "--out", str(tmp_path)]) == 1
        lines = capsys.readouterr().out.splitlines()
        for tag, status in (("0.3", "PASS"), ("1.99", "FAIL")):
            k = next(i for i, line in enumerate(lines)
                     if f"frame-coupling-21[gamma={tag}]" in line)
            name, measured, bound = lines[k + 1].split("  ")[1:]
            assert lines[k + 1].startswith(status)
            assert name == f"angle-rate[gamma={tag}]"
            assert measured.startswith("measured=")
            assert bound == "bound=1e-08"

    def test_coarse_grid_fails_convergence_gate(self, tmp_path, capsys):
        assert main(["verify", "--gamma", "0.3", "--steps", "100",
                     "--out", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out
        assert "convergence" in out

    def test_critical_decay_reported_nonzero(self, tmp_path, capsys):
        assert main(["verify", "--gamma", "2.0", "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert "DegenerateRegime" in err

    def test_constant_h_tables_match_callable_integration(self, monkeypatch):
        from nhsta import cli
        from nhsta.grids import TimeGrid
        from nhsta.propagation import integrate

        def sampled(h, psi0, grid):
            return integrate(lambda t: h, psi0, grid)

        grid = TimeGrid(0.0, 10.0, 500)
        assert (cli._propagate_constant(cli.H_RABI, [1, 0], grid).psi.tobytes()
                == sampled(cli.H_RABI, [1, 0], grid).psi.tobytes())
        errors = [cli.rabi_error(500), cli.rabi_error(1000),
                  cli.decay_error(4000)]
        monkeypatch.setattr(cli, "_propagate_constant", sampled)
        assert [cli.rabi_error(500), cli.rabi_error(1000),
                cli.decay_error(4000)] == errors

    def test_corpus_decomposes_one_stack_per_dimension(self, tmp_path,
                                                        monkeypatch):
        from nhsta import cli
        from nhsta.biorthogonal import decompose
        shapes = []

        def counted(m, *args, **kwargs):
            shapes.append(np.shape(m))
            return decompose(m, *args, **kwargs)

        monkeypatch.setattr(cli, "decompose", counted)
        assert main(["verify", "--gamma", "0.3", "--out", str(tmp_path)]) == 0
        assert [shape[1:] for shape in shapes] == [(2, 2), (3, 3), (4, 4)]
        assert sum(shape[0] for shape in shapes) == 60

    def test_closed_form_formed_once_per_decay_rate(self, tmp_path,
                                                    monkeypatch, capsys):
        # where the check reads it, from the run's table
        from nhsta.cli import VERIFY_DEFAULT_GAMMAS
        callers = closed_form_callers(monkeypatch)
        assert main(["verify", "--out", str(tmp_path)]) == 0
        assert "closed-form-vs-ode[gamma=1]" in capsys.readouterr().out
        assert callers == ["closed_form"] * len(VERIFY_DEFAULT_GAMMAS)

    def test_corpus_keeps_its_coverage(self):
        from nhsta.cli import random_corpus
        corpus = list(random_corpus())
        # one stack per dimension, 60 matrices in all
        assert [m.shape[1:] for m, _ in corpus] == [(2, 2), (3, 3), (4, 4)]
        assert sum(len(m) for m, _ in corpus) == 60
        entries = np.concatenate([m.ravel() for m, _ in corpus])
        assert np.max(np.abs(entries.real)) <= 1.0
        assert np.max(np.abs(entries.imag)) <= 1.0
        again = list(random_corpus())
        assert all(np.array_equal(m, n) for (m, _), (n, _) in zip(corpus, again))


class TestFormatsAndPulseFile:
    def test_json_emission(self, tmp_path):
        assert main(["figure1", "--gamma", "0.3", "--steps", "1000",
                     "--format", "json", "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "figure1_gamma0.3.json").read_text())
        assert payload["columns"] == ["t", "re_z", "im_z", "eta", "regime"]
        assert len(payload["rows"]) == 1001

    def test_tabulated_pulse(self, tmp_path):
        ts = np.linspace(-1, 1, 400)
        table = np.column_stack([ts, 1.0 / np.cosh(ts), 9.0 * np.tanh(ts)])
        pulse_file = tmp_path / "pulse.txt"
        np.savetxt(pulse_file, table)
        assert main(["figure2", "--gamma", "0.3", "--steps", "1000",
                     "--pulse-file", str(pulse_file),
                     "--out", str(tmp_path)]) == 0
        data = read_csv(tmp_path / "figure2_gamma0.3.csv")
        assert abs(data["re_theta"][0]) <= 0.2
        assert abs(data["re_theta"][-1] - np.pi) <= 0.2

    @staticmethod
    def sech_tanh_table(path, omega0=1.0, points=801, delimiter=" "):
        """Table of Omega_R = omega0 sech t, Delta = 9 tanh t on [-1, 1]."""
        ts = np.linspace(-1, 1, points)
        np.savetxt(path, np.column_stack(
            [ts, omega0 / np.cosh(ts), 9 * np.tanh(ts)]), delimiter=delimiter)
        return str(path)

    @classmethod
    def strong_pulse(cls, path, delimiter=" "):
        """801-point table of Omega_R = 2 sech t, Delta = 9 tanh t: at
        gamma = 3, Re Z(0) = 16 - 9 > 0, so the pulse is sub-critical although
        the default omega0 = 1 would call gamma = 3 super-critical."""
        return cls.sech_tanh_table(path, omega0=2.0, delimiter=delimiter)

    @pytest.mark.parametrize("points", [801, 201])
    def test_tabulated_default_pulse_passes_verify(self, tmp_path, capsys,
                                                   points):
        # piecewise-linear Omega_R and Delta with a differenced theta rate
        # failed the frame coupling at every gamma and three checks at 3
        pulse = self.sech_tanh_table(tmp_path / "pulse.txt", points=points)
        assert main(["verify", "--pulse-file", pulse,
                     "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().out.endswith("verify: all checks passed\n")

    def test_tabulated_default_pulse_reproduces_figure3(self, tmp_path):
        # the spline and its derivative stand in for sech/tanh so closely
        # that the tables agree to round-off (linear: up to 7e-7 apart)
        pulse = self.sech_tanh_table(tmp_path / "pulse.txt")
        gammas = ("0.1", "0.3", "1", "3")
        for out, extra in (("file", ["--pulse-file", pulse]), ("sech", [])):
            assert main(["figure3", "--gamma", ",".join(gammas),
                         "--out", str(tmp_path / out)] + extra) == 0
        for gamma in gammas:
            name = f"figure3_gamma{gamma}.csv"
            file, sech = (read_csv(tmp_path / out / name)
                          for out in ("file", "sech"))
            for column, values in sech.items():
                assert np.max(np.abs(file[column] - values)) < 1e-12, column

    def test_tabulated_regime_comes_from_the_largest_omega(self, tmp_path):
        pulse = self.strong_pulse(tmp_path / "pulse.txt")
        for omega0 in ("1", "0.5"):  # not read with a pulse file
            out = tmp_path / omega0
            assert main(["figure1", "--pulse-file", pulse, "--gamma", "3",
                         "--omega0", omega0, "--out", str(out)]) == 0
        data = read_csv(tmp_path / "1" / "figure1_gamma3.csv")
        assert set(data["regime"]) == {"sub-critical"}
        assert np.min(data["re_z"]) > 0.0
        assert np.max(np.abs(data["eta"])) < 0.5 * np.pi  # principal branch
        assert ((tmp_path / "1" / "figure1_gamma3.csv").read_bytes()
                == (tmp_path / "0.5" / "figure1_gamma3.csv").read_bytes())

    def test_tabulated_sub_critical_runs_certify(self, tmp_path):
        # gamma = 2 is below 2*max(Omega_R) = 4, not on the critical line
        pulse = self.strong_pulse(tmp_path / "pulse.txt")
        assert main(["figure3", "--pulse-file", pulse, "--gamma", "2,3",
                     "--out", str(tmp_path)]) == 0
        assert main(["sweep", "--pulse-file", pulse, "--gamma", "2,3",
                     "--out", str(tmp_path)]) == 0
        rows = read_csv(tmp_path / "sweep.csv")
        assert rows["regime"] == ["sub-critical"] * 2
        assert rows["certified"] == ["True"] * 2

    def test_pulse_file_parsed_once_per_command(self, tmp_path, monkeypatch):
        from nhsta import config

        # comma-separated, so each parse is one np.loadtxt call
        pulse = self.strong_pulse(tmp_path / "pulse.csv", delimiter=",")
        loadtxt, reads = np.loadtxt, []
        cubic_spline, fits = config.cubic_spline, []

        def counted(*args, **kwargs):
            reads.append(args[0])
            return loadtxt(*args, **kwargs)

        def counted_fit(*args):
            fits.append(args)
            return cubic_spline(*args)

        monkeypatch.setattr(np, "loadtxt", counted)
        monkeypatch.setattr(config, "cubic_spline", counted_fit)
        # verify builds a pulse for each of its four default decay rates,
        # all from one read and one spline fit per column; the splines
        # carry exact derivatives, so the tabulated pulse passes every check
        assert main(["verify", "--pulse-file", pulse,
                     "--out", str(tmp_path)]) == 0
        assert len(reads) == 1
        assert len(fits) == 2

    def test_env_var_sets_output_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("NH_STA_OUT", str(tmp_path / "env_out"))
        assert main(["figure1", "--gamma", "0.3", "--steps", "1000"]) == 0
        assert (tmp_path / "env_out" / "figure1_gamma0.3.csv").exists()
