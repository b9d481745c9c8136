import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from condibeam import cli, conditional
from condibeam.errors import ConditioningWarning, ConfigError
from condibeam.selftest import run_selftest

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


class TestConfigParsing:
    def test_key_value_and_comments(self):
        entries = cli.parse_config("# header\nn = 3\nbeta = 0.5+0.1i  # inline\n\n")
        assert entries == {"n": "3", "beta": "0.5+0.1i"}

    def test_rejects_missing_equals(self):
        with pytest.raises(ConfigError):
            cli.parse_config("n 3\n")

    def test_rejects_duplicate_keys(self):
        with pytest.raises(ConfigError):
            cli.parse_config("n = 3\nn = 4\n")

    def test_unknown_keys_are_errors(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            cli.run_experiment("scheme-a", "n = 2\nbeta = 1\nbogus = 7\n")

    def test_missing_required_key(self):
        with pytest.raises(ConfigError, match="missing required key"):
            cli.run_experiment("scheme-a", "n = 2\n")

    def test_complex_parsing(self):
        assert cli._parse_complex("1.5-0.25i") == 1.5 - 0.25j
        assert cli._parse_complex("2") == 2 + 0j
        assert cli._parse_complex("1i") == 1j
        with pytest.raises(ConfigError):
            cli._parse_complex("one plus two")

    def test_experiment_key_must_match(self):
        with pytest.raises(ConfigError, match="command line says"):
            cli.run_experiment("scheme-a", "experiment = scheme-b\nn = 1\nbeta = 1\n")


class TestExperiments:
    def test_y_matrix(self):
        scalars, grids, _ = cli.run_experiment(
            "y-matrix", "m = 2\nn = 1\nalpha = 0.3\nbeta = -0.2i\ncutoff = 32\n")
        assert scalars["oracle_rel_frobenius_error"] < 1e-8
        assert scalars["largest_singular_value"] <= 1.0 + 1e-6
        assert grids == []

    def test_scheme_a(self):
        scalars, _, _ = cli.run_experiment(
            "scheme-a", "n = 1\nbeta = 0.7071067811865476\ncutoff = 32\n")
        assert scalars["probability"] == pytest.approx(0.375 * math.exp(-0.5))
        assert scalars["fidelity_vs_chi"] == pytest.approx(1.0, abs=1e-10)
        assert "amp_1" in scalars

    def test_scheme_b(self):
        scalars, _, _ = cli.run_experiment(
            "scheme-b", "n = 2\nbeta = 1\ncutoff = 64\n")
        assert scalars["fidelity_vs_displaced_chi"] >= 1.0 - 1e-6
        assert scalars["probability"] == pytest.approx(
            scalars["probability_formula"], abs=1e-8)

    def test_multi_cat(self):
        scalars, _, _ = cli.run_experiment(
            "multi-cat", "n = 2\nk = 2\nbeta = 1.5\ncutoff = 32\n")
        assert scalars["vector_norm"] == pytest.approx(1.0, abs=1e-10)
        assert scalars["top_level"] == 4

    def test_q_grid(self):
        scalars, grids, _ = cli.run_experiment(
            "q-grid",
            "state = chi\nn = 2\nbeta = 1\ncutoff = 32\n"
            "grid_lo = -3\ngrid_hi = 3\ngrid_points = 31\n")
        assert scalars["closed_form_max_abs_dev"] < 1e-8
        assert len(grids) == 1 and grids[0][1].kind == "husimi"

    def test_wigner_grid(self):
        scalars, grids, _ = cli.run_experiment(
            "wigner-grid",
            "n = 2\nbeta = 1\ncutoff = 32\ngrid_points = 41\nmethod = both\n")
        assert scalars["closed_vs_numeric_max_abs_dev"] < 1e-6
        assert scalars["integral"] == pytest.approx(1.0, abs=1e-3)
        assert scalars["min_value"] < 0  # cat states go negative

    def test_quadrature_grid(self):
        scalars, grids, _ = cli.run_experiment(
            "quadrature-grid",
            "n = 2\nbeta = 1\ncutoff = 32\ngrid_points = 41\nphi_points = 5\n")
        assert scalars["closed_form_max_abs_dev"] < 1e-8
        gf = grids[0][1]
        assert gf.values.shape == (41, 5)
        assert np.all(gf.values >= 0)

    def test_prob_scan(self):
        scalars, _, _ = cli.run_experiment("prob-scan", "n_min = 0\nn_max = 4\n")
        assert scalars["p_0"] == pytest.approx(1.0)
        assert scalars["p_1"] == pytest.approx(0.375 * math.exp(-0.5))
        assert all(f"p_{n}" in scalars for n in range(5))

    def test_scheme_a_at_cutoff_1024(self):
        scalars, _, _ = cli.run_experiment(
            "scheme-a", "n = 10\nbeta = 0.5\ncutoff = 1024\n")
        assert math.isfinite(scalars["probability"])
        assert abs(scalars["probability"] - scalars["probability_formula"]) < 1e-10

    def test_prob_scan_matches_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        scalars, _, _ = cli.run_experiment("prob-scan", "n_min = 0\nn_max = 60\n")
        with mpmath.workdps(60):
            for n in range(61):
                b2 = mpmath.mpf(n) / 2
                # zeroprec: some L_{n-k}^k(n/2) are exactly 0, e.g. L_2^2(2)
                norm = mpmath.fsum(b2 ** k / mpmath.factorial(k)
                                   * mpmath.laguerre(n - k, k, b2, zeroprec=1000) ** 2
                                   for k in range(n + 1))
                ref = float(2 ** -mpmath.mpf(n) * mpmath.exp(-b2) * norm)
                assert abs(scalars[f"p_{n}"] / ref - 1.0) < 1e-12, n

    def test_povm_demo(self):
        scalars, _, _ = cli.run_experiment(
            "povm-demo", "eta = 0.8\ncutoff = 24\nsignal_n = 2\noutcome = 1\n")
        assert scalars["completeness_max_dev"] < 1e-12
        assert scalars["route_probability_dev"] < 1e-12
        assert scalars["route_state_max_dev"] < 1e-12


class TestRendering:
    CONFIG = "n = 1\nbeta = 0.7071067811865476\ncutoff = 32\n"

    def test_envelope_embeds_config_bytes(self):
        scalars, _, dur = cli.run_experiment("scheme-a", self.CONFIG)
        text = cli.render_envelope_text("scheme-a", self.CONFIG, scalars, dur)
        begin = text.index("# config-begin\n") + len("# config-begin\n")
        end = text.index("\n# config-end")
        assert text[begin:end] == self.CONFIG.rstrip("\n")

    def test_determinism_modulo_duration(self):
        out = []
        for _ in range(2):
            scalars, _, dur = cli.run_experiment("scheme-a", self.CONFIG)
            text = cli.render_envelope_text("scheme-a", self.CONFIG, scalars, dur)
            out.append("\n".join(l for l in text.splitlines()
                                 if not l.startswith("# duration_s")))
        assert out[0] == out[1]

    def test_grid_csv_header(self):
        _, grids, _ = cli.run_experiment(
            "q-grid", "n = 1\nbeta = 1\ncutoff = 32\ngrid_points = 11\n")
        csv = cli.render_grid_csv(grids[0][1])
        lines = csv.splitlines()
        assert lines[0] == "# axis1 re_alpha -4.0 4.0 11"
        assert lines[1] == "# axis2 im_alpha -4.0 4.0 11"
        assert lines[2] == "# kind husimi"
        assert len(lines) == 3 + 11
        assert len(lines[3].split(",")) == 11

    def test_json_like_roundtrip(self):
        scalars, grids, dur = cli.run_experiment(
            "q-grid", "n = 1\nbeta = 1\ncutoff = 32\ngrid_points = 11\n")
        doc = json.loads(cli.render_envelope_json(
            "q-grid", "n = 1\n", scalars, grids, dur))
        assert doc["experiment"] == "q-grid"
        assert doc["config"] == "n = 1\n"
        assert len(doc["grids"]["husimi"]["values"]) == 11

    def test_complex_scalar_format(self):
        assert cli._fmt_complex(1.5 - 0.25j) == "1.5-0.25i"
        assert cli._fmt_complex(2.0 + 0j) == "2.0"
        assert cli._parse_complex(cli._fmt_complex(0.3 + 0.7j)) == 0.3 + 0.7j


class TestMainExitCodes:
    def test_success_and_grid_output(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("n = 1\nbeta = 1\ncutoff = 32\ngrid_points = 11\n")
        out = tmp_path / "grid.csv"
        rc = cli.main(["q-grid", "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        assert out.read_text().startswith("# axis1")
        captured = capsys.readouterr().out
        assert "# experiment q-grid" in captured

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("nonsense = 1\n")
        assert cli.main(["scheme-a", "--config", str(cfg)]) == 2

    def test_domain_error_exit_code(self, tmp_path):
        cfg = tmp_path / "dom.cfg"
        # displacement far beyond the truncation budget
        cfg.write_text("m = 0\nn = 0\nalpha = 9.0\ncutoff = 32\n")
        assert cli.main(["y-matrix", "--config", str(cfg)]) == 3

    def test_guard_mismatch_exit_code(self, tmp_path, monkeypatch, capsys):
        # a closed form that disagrees with the oracle below |R|^2 = 0.05 is
        # a domain error, not a traceback
        original = conditional.s_ordered_monomial
        monkeypatch.setattr(conditional, "s_ordered_monomial",
                            lambda spec, policy: 1.001 * original(spec, policy))
        cfg = tmp_path / "guard.cfg"
        cfg.write_text("m = 1\nn = 1\ntheta = 0.2\ncutoff = 32\n")
        with pytest.warns(ConditioningWarning):
            rc = cli.main(["y-matrix", "--config", str(cfg)])
        err = capsys.readouterr().err
        assert rc == 3
        assert err.startswith("domain error: ") and "deviates from oracle" in err
        assert err.count("\n") == 1

    def test_missing_config(self):
        assert cli.main(["scheme-a"]) == 2

    def test_json_format_to_file(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("n_min = 0\nn_max = 2\n")
        out = tmp_path / "res.json"
        rc = cli.main(["prob-scan", "--config", str(cfg), "--format",
                       "json-like", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["results"]["p_0"] == pytest.approx(1.0)

    @pytest.mark.parametrize("config, key, value, experiment, message", [
        ("two_peak_husimi", "grid_points", "1", "q-grid", "grid_points must be >= 2"),
        ("two_peak_husimi", "cutoff", "4", "q-grid", "cutoff must be >= 8"),
        ("two_peak_husimi", "n", "-1", "q-grid", "n must be >= 0"),
        ("conditional_operator_demo", "theta", "nan", "y-matrix", "theta must be finite"),
        ("inefficient_detection_demo", "eta", "1.5", "povm-demo", "efficiency must be in"),
        ("conditional_operator_demo", "m", "-1", "y-matrix", "m must be >= 0"),
        ("conditional_operator_demo", "n", "-1", "y-matrix", "n must be >= 0"),
        ("inefficient_detection_demo", "outcome", "99", "povm-demo",
         "outcome must be in 0..32"),
        ("inefficient_detection_demo", "outcome", "-1", "povm-demo",
         "outcome must be in 0..32"),
    ])
    def test_bad_value_in_shipped_config(self, tmp_path, capsys, config, key, value,
                                         experiment, message):
        lines = (CONFIGS / f"{config}.cfg").read_text().splitlines()
        lines = [f"{key} = {value}" if line.split("=")[0].strip() == key else line
                 for line in lines]
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("\n".join(lines) + "\n")
        rc = cli.main([experiment, "--config", str(cfg), "--out", str(tmp_path / "o.csv")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("config error: ") and message in err
        assert err.count("\n") == 1


def test_runtime_imports_no_scipy(tmp_path):
    # scipy is a test extra only: the CLI, its selftest and a grid experiment
    # must run on numpy and the standard library alone
    cfg = tmp_path / "wigner.cfg"
    cfg.write_text("n = 2\nbeta = 1\ncutoff = 32\ngrid_points = 41\n")
    code = textwrap.dedent(f"""
        import sys
        import condibeam.cli
        assert condibeam.cli.main(["selftest"]) == 0
        assert condibeam.cli.main(["wigner-grid", "--config", {str(cfg)!r},
                                   "--format", "json-like",
                                   "--out", {str(tmp_path / "w.json")!r}]) == 0
        loaded = sorted(m for m in sys.modules if m.startswith("scipy"))
        assert not loaded, loaded
    """)
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


class TestSelftest:
    def test_passes_and_is_deterministic(self):
        reports = []
        for _ in range(2):
            lines = []
            assert run_selftest(write=lines.append)
            reports.append("\n".join(lines))
        assert reports[0] == reports[1]
        assert reports[0].endswith("selftest passed")

    def test_selftest_exit_code(self, capsys):
        assert cli.main(["selftest"]) == 0
        assert "selftest passed" in capsys.readouterr().out

    def test_corrupted_coefficient_is_caught(self, monkeypatch, capsys):
        # flip the sign of every s-ordered monomial of the closed form: the
        # oracle comparison must fail and the exit code must be nonzero
        original = conditional.s_ordered_monomial
        monkeypatch.setattr(conditional, "s_ordered_monomial",
                            lambda spec, policy: -1.0 * original(spec, policy))
        assert cli.main(["selftest"]) == 4
        out = capsys.readouterr().out
        assert "FAIL closed-form-vs-oracle" in out
