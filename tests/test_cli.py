import json
import math
import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest

from condibeam import cli, conditional
from condibeam.errors import ConfigError
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

    CHI_40 = "n = 40\nbeta = 4.47213595499958\ncutoff = 168\n"  # |beta|^2 = 20
    CHI_40_EXTRA = {
        "scheme-a": "",
        "scheme-b": "",
        "q-grid": "state = chi\ngrid_lo = -7\ngrid_hi = 7\ngrid_points = 41\n",
        "wigner-grid": "grid_lo = -8\ngrid_hi = 8\ngrid_points = 41\n",
        "quadrature-grid": "grid_lo = -9\ngrid_hi = 9\ngrid_points = 61\nphi_points = 5\n",
    }

    @pytest.mark.parametrize("experiment", list(CHI_40_EXTRA))
    def test_chi_experiments_at_n_40(self, experiment):
        scalars, _, _ = cli.run_experiment(experiment,
                                           self.CHI_40 + self.CHI_40_EXTRA[experiment])
        assert all(np.isfinite(v) for v in scalars.values())
        if experiment == "scheme-a":
            assert scalars["fidelity_vs_chi"] == pytest.approx(1.0, abs=1e-10)
            assert scalars["probability"] == pytest.approx(
                scalars["probability_formula"], rel=1e-10)
        elif experiment == "scheme-b":
            assert scalars["fidelity_vs_displaced_chi"] >= 1.0 - 1e-10
            assert scalars["probability"] == pytest.approx(
                scalars["probability_formula"], rel=1e-10)
        elif experiment == "wigner-grid":
            assert scalars["closed_vs_numeric_max_abs_dev"] < 1e-6
            assert scalars["min_value"] < 0
        else:
            assert scalars["closed_form_max_abs_dev"] < 1e-8

    def test_scheme_b_at_n_60(self):
        scalars, _, _ = cli.run_experiment(
            "scheme-b", "n = 60\nbeta = 5.477225575051661\ncutoff = 240\n")  # |beta|^2 = 30
        assert scalars["fidelity_vs_displaced_chi"] >= 1.0 - 1e-10
        assert scalars["probability"] == pytest.approx(
            scalars["probability_formula"], rel=1e-10)

    def test_prob_scan_where_n_overflows(self):
        # N overflows from n ~ 750 at |beta|^2 = n/2; p is summed from terms
        # of magnitude at most 1 and stays finite
        mpmath = pytest.importorskip("mpmath")
        scalars, _, _ = cli.run_experiment("prob-scan", "n_min = 800\nn_max = 800\n")
        with mpmath.workdps(60):
            b2 = mpmath.mpf(400)
            norm = mpmath.fsum(b2 ** k / mpmath.factorial(k)
                               * mpmath.laguerre(800 - k, k, b2, zeroprec=1000) ** 2
                               for k in range(801))
            ref = float(2 ** -mpmath.mpf(800) * mpmath.exp(-b2) * norm)
        assert abs(scalars["p_800"] / ref - 1.0) < 1e-12

    def test_prob_scan_past_float_binomials(self, tmp_path, capsys):
        # C(1300, 650) does not fit a float
        cfg = tmp_path / "scan.cfg"
        cfg.write_text("n_min = 1300\nn_max = 1300\n")
        assert cli.main(["prob-scan", "--config", str(cfg)]) == 0
        line = capsys.readouterr().out.splitlines()[-1]
        assert line.startswith("p_1300 = ") and 0 < float(line.split("=")[1]) < 1

    def test_scheme_a_n_100_matches_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        beta = math.sqrt(50.0) * np.exp(0.3j)
        scalars, _, _ = cli.run_experiment(
            "scheme-a", f"n = 100\nbeta = {cli._fmt_complex(beta)}\ncutoff = 1024\n")
        with mpmath.workdps(60):
            b2 = mpmath.mpf(abs(beta)) ** 2
            norm = mpmath.fsum(b2 ** k / mpmath.factorial(k)
                               * mpmath.laguerre(100 - k, k, b2, zeroprec=1000) ** 2
                               for k in range(101))
            ref = float(2 ** -mpmath.mpf(100) * mpmath.exp(-b2) * norm)
        assert abs(scalars["probability"] / ref - 1.0) < 1e-12
        assert scalars["fidelity_vs_chi"] == pytest.approx(1.0, abs=1e-10)

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

    @pytest.mark.parametrize("experiment, config", [
        ("prob-scan", "beta_rule = fixed\nbeta = 1e200\n"),
        ("prob-scan", "beta_rule = fixed\nbeta = nan\n"),
        ("multi-cat", "n = 2\nk = 2\nbeta = nan\ncutoff = 32\n"),
    ], ids=["prob-scan-huge-beta", "prob-scan-nan-beta", "multi-cat-nan-beta"])
    def test_bad_cat_values(self, tmp_path, capsys, experiment, config):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(config)
        rc = cli.main([experiment, "--config", str(cfg)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("config error: ") and "|beta|^2 must be finite" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("experiment, n", [("scheme-a", 3), ("scheme-b", 4)])
    def test_subnormal_beta_runs(self, tmp_path, capsys, experiment, n):
        # |beta|^2 = 4.9e-324 is a valid (subnormal) intensity: exit 0 with
        # the undisplaced probability 2^-n and no warning
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(f"n = {n}\nbeta = 1.786e-162\ncutoff = 32\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = cli.main([experiment, "--config", str(cfg)])
        captured = capsys.readouterr()
        assert rc == 0 and captured.err == ""
        assert not caught, [str(w.message) for w in caught]
        scalars = dict(line.split(" = ") for line in captured.out.splitlines()
                       if not line.startswith("#"))
        assert float(scalars["probability"]) == pytest.approx(0.5 ** n, rel=1e-12)

    @pytest.mark.parametrize("experiment, config, message", [
        ("scheme-a", "n = 0\nbeta = 1e150\ncutoff = 32\n", "leaks mass 1.000e+00"),
        ("scheme-a", "n = 4\nbeta = 1e150\ncutoff = 32\n", "normalization N overflows"),
        ("prob-scan", "beta_rule = fixed\nbeta = 1e150\nn_min = 0\nn_max = 3\n",
         "normalization N overflows at n = 1"),
    ], ids=["scheme-a-n-0", "scheme-a-n-4", "prob-scan"])
    def test_huge_finite_beta_is_a_domain_error(self, tmp_path, capsys, experiment,
                                                config, message):
        # |beta|^2 = 1e300 is finite, but no truncation holds it and the
        # chi normalization overflows: exit 3, no NaN, no traceback
        cfg = tmp_path / "huge.cfg"
        cfg.write_text(config)
        rc = cli.main([experiment, "--config", str(cfg)])
        captured = capsys.readouterr()
        assert rc == 3
        assert captured.err.startswith("domain error: ") and message in captured.err
        assert captured.err.count("\n") == 1
        assert "nan" not in captured.out

    @pytest.mark.parametrize("n", [150, 180])
    def test_high_fock_reference_is_a_domain_error(self, tmp_path, capsys, n):
        # the s-ordered term (n, n) leaves the float range: its band overflows
        # at n = 150 and its coefficient underflows at n = 180
        cfg = tmp_path / "high.cfg"
        cfg.write_text(f"n = {n}\nbeta = {math.sqrt(n / 2.0)!r}\ncutoff = {4 * n}\n")
        rc = cli.main(["scheme-b", "--config", str(cfg)])
        err = capsys.readouterr().err
        assert rc == 3
        assert err.startswith("domain error: ") and "leaves the float range" in err
        assert err.count("\n") == 1

    def test_quadrature_closed_form_outside_float_range(self, tmp_path, capsys):
        # at n = 300 the unnormalized H_k(x) of the closed-form referee leave
        # the float range; it carries their exponents, so the run exits 0 and
        # the referee agrees with the overlap route
        cfg = tmp_path / "q300.cfg"
        cfg.write_text(f"n = 300\nbeta = {math.sqrt(150.0)!r}\ncutoff = 1024\n")
        out = tmp_path / "q300.json"
        rc = cli.main(["quadrature-grid", "--config", str(cfg), "--format", "json-like",
                       "--out", str(out)])
        assert rc == 0
        assert capsys.readouterr().err == ""
        assert json.loads(out.read_text())["results"]["closed_form_max_abs_dev"] < 1e-8

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
        ("conditional_operator_demo", "alpha", "nan", "y-matrix",
         "displacement must be finite"),
        ("conditional_operator_demo", "beta", "1e400", "y-matrix",
         "displacement must be finite"),
        ("conditional_operator_demo", "beta", "inf", "y-matrix",
         "displacement must be finite"),
        ("conditional_operator_demo", "beta", "-inf", "y-matrix",
         "displacement must be finite"),
        ("inefficient_detection_demo", "eta", "1.5", "povm-demo", "efficiency must be in"),
        ("conditional_operator_demo", "m", "-1", "y-matrix", "m must be >= 0"),
        ("conditional_operator_demo", "n", "-1", "y-matrix", "n must be >= 0"),
        ("inefficient_detection_demo", "outcome", "99", "povm-demo",
         "outcome must be in 0..32"),
        ("inefficient_detection_demo", "outcome", "-1", "povm-demo",
         "outcome must be in 0..32"),
        ("inefficient_detection_demo", "signal_n", "-1", "povm-demo",
         "signal_n must be in 0..32"),
        ("inefficient_detection_demo", "signal_n", "999", "povm-demo",
         "signal_n must be in 0..32"),
        ("success_probability_scan", "n_min", "-1", "prob-scan", "n_min must be >= 0"),
        ("two_peak_cat", "beta", "nan", "scheme-a", "|beta|^2 must be finite"),
        ("two_peak_cat", "phi_t", "nan", "scheme-a", "phi_t must be finite"),
        ("two_peak_cat", "phi_r", "inf", "scheme-a", "phi_r must be finite"),
        ("two_peak_cat", "route", "bogus", "scheme-a", "route must be closed or oracle"),
        ("two_peak_cat", "route", "bogus", "scheme-b", "route must be closed or oracle"),
    ])
    def test_bad_value_in_shipped_config(self, tmp_path, capsys, config, key, value,
                                         experiment, message):
        # the edited key replaces its line, or is appended when the config
        # leaves it at its default; the experiment line names the experiment run
        edits = {"experiment": experiment, key: value}
        lines = (CONFIGS / f"{config}.cfg").read_text().splitlines()
        keys = [line.split("#")[0].split("=")[0].strip() for line in lines]
        lines = [f"{k} = {edits[k]}" if k in edits else line for k, line in zip(keys, lines)]
        lines += [f"{k} = {v}" for k, v in edits.items() if k not in keys]
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
        out = capsys.readouterr().out
        assert "selftest passed" in out
        assert "ok   chi-state-vs-oracle: " in out

    def test_corrupted_coefficient_is_caught(self, monkeypatch, capsys):
        # flip the sign of every s-ordered monomial of the closed form: the
        # oracle comparison must fail and the exit code must be nonzero
        original = conditional.s_ordered_band
        monkeypatch.setattr(conditional, "s_ordered_band",
                            lambda spec, policy: -1.0 * original(spec, policy))
        assert cli.main(["selftest"]) == 4
        out = capsys.readouterr().out
        assert "FAIL closed-form-vs-oracle" in out
