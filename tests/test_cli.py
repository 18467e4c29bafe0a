"""CLI commands: emission formats, manifests, exit codes, determinism."""
import hashlib
import json

import numpy as np
import pytest

from nhsta.cli import main
from nhsta.config import build_config, parse_config_file
from nhsta.errors import ConfigError


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


def test_cli_import_leaves_scipy_unloaded():
    import subprocess
    import sys
    code = "import sys, nhsta.cli; print('scipy' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True)
    assert done.stdout.strip() == "False"


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

    def test_manifest_lists_files_with_checksums(self, tmp_path):
        assert main(["figure3", "--gamma", "0.3", "--steps", "1000",
                     "--out", str(tmp_path)]) == 0
        manifest = json.loads((tmp_path / "figure3_manifest.json").read_text())
        assert manifest["files"]
        for entry in manifest["files"]:
            digest = hashlib.sha256(
                (tmp_path / entry["path"]).read_bytes()).hexdigest()
            assert digest == entry["sha256"]
        run = manifest["runs"][0]
        assert run["convergence"] <= 1e-7


class TestFigure4:
    def test_inversion_series(self, tmp_path):
        assert main(["figure4", "--out", str(tmp_path)]) == 0
        data = read_csv(tmp_path / "figure4_gamma1.csv")
        assert data["p0_renorm"][-1] <= 0.01
        assert data["p1"][-1] > 0.0
        assert data["p0_plus_p1"][0] == pytest.approx(
            data["p0"][0] + data["p1"][0])
        # initial bare-ground weight equals the eigenstate overlap
        from conftest import ae_params
        from nhsta.grids import TimeGrid
        from nhsta.two_level import allen_eberly, mixing_angle_path
        path = mixing_angle_path(allen_eberly(ae_params(1.0)),
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

    def test_supercritical_row_emitted(self, tmp_path):
        assert main(["sweep", "--gamma", "3", "--steps", "1000",
                     "--initial-state", "eigen-plus,bare-ground",
                     "--out", str(tmp_path)]) == 0
        rows = read_csv(tmp_path / "sweep.csv")
        assert rows["regime"] == ["super-critical", "super-critical"]
        assert rows["initial_state"] == ["eigen-plus", "bare-ground"]

    def test_policy_cross_product(self, tmp_path):
        assert main(["sweep", "--gamma", "0.3", "--steps", "1000",
                     "--policy", "hermitian-realizable,naive-cd,general-omega-zero",
                     "--out", str(tmp_path)]) == 0
        rows = read_csv(tmp_path / "sweep.csv")
        assert rows["policy"] == ["hermitian-realizable", "naive-cd",
                                  "general-omega-zero"]
        # every leak-cancelling policy traps the reference amplitude
        assert np.max(rows["max_abs_g_minus"]) <= 1e-5
        assert np.isnan(rows["max_residual"][1])  # matrix-valued policy
        assert np.max(np.abs(rows["g_plus_sq_final"] - 1.0)) <= 1e-3

    def test_empty_gamma_list_is_config_error(self, tmp_path):
        assert main(["sweep", "--out", str(tmp_path)]) == 2


class TestExitCodes:
    def test_critical_decay_rate_exits_numerical(self, tmp_path):
        assert main(["figure3", "--gamma", "2.0", "--out", str(tmp_path)]) == 3

    def test_bad_config_file_exits_config(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("nonsense_key = 3\n")
        assert main(["figure1", "--config", str(bad),
                     "--out", str(tmp_path)]) == 2

    def test_inverted_window_exits_config(self, tmp_path):
        assert main(["figure1", "--t0", "2.0", "--t-final", "1.0",
                     "--out", str(tmp_path)]) == 2


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

    def test_env_var_sets_output_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("NH_STA_OUT", str(tmp_path / "env_out"))
        assert main(["figure1", "--gamma", "0.3", "--steps", "1000"]) == 0
        assert (tmp_path / "env_out" / "figure1_gamma0.3.csv").exists()
