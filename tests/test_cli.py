import gc
import json
import math
import os
import subprocess
import sys
import textwrap
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from condibeam import cli, conditional, fock, phasespace, twomode
from condibeam.beamsplitter import BeamSplitterParams, ReferencePrep
from condibeam.errors import ConfigError, DomainError
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

    @pytest.mark.parametrize("m, n, theta, cutoff", [
        (2, 1, math.pi / 4, 48), (2, 1, math.pi / 4, 256), (2, 2, 0.2, 96)])
    def test_y_matrix_runs_on_the_band(self, monkeypatch, m, n, theta, cutoff):
        # no dense SVD and no dense Y on the route; its scalars against the
        # dense route: the SVD and norms of .mat and the dense deviation
        def refuse(*args, **kwargs):
            raise AssertionError("dense matrix or decomposition on the y-matrix route")

        monkeypatch.setattr(np.linalg, "svd", refuse)
        monkeypatch.setattr(fock.BandedOperator, "mat", property(refuse))
        alpha, beta = 0.3 * np.exp(0.7j), 0.2 * np.exp(-2.1j)
        config = (f"m = {m}\nn = {n}\nalpha = {cli._fmt_complex(alpha)}\n"
                  f"beta = {cli._fmt_complex(beta)}\ntheta = {theta!r}\nphi_t = 0.4\n"
                  f"phi_r = 1.1\ncutoff = {cutoff}\n")
        scalars, _, _ = cli.run_experiment("y-matrix", config)
        monkeypatch.undo()
        bs, policy = BeamSplitterParams(theta, 0.4, 1.1), fock.TruncationPolicy(cutoff)
        mat = conditional.y_displaced_fock(m, n, alpha, beta, bs, policy).mat
        oracle = twomode.oracle_y(ReferencePrep.fock(m, alpha), ReferencePrep.fock(n, beta),
                                  bs, policy).mat
        assert scalars["frobenius_norm"] == pytest.approx(np.linalg.norm(mat), rel=1e-14)
        top = np.linalg.svd(mat, compute_uv=False)[0]
        assert scalars["largest_singular_value"] == pytest.approx(top, rel=1e-13)
        dense = np.linalg.norm(mat - oracle) / np.linalg.norm(oracle)
        assert dense <= scalars["oracle_rel_frobenius_error"] <= dense + 1e-15

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


GRID_CONFIGS = sorted(
    path.name for path in CONFIGS.glob("*.cfg")
    if "grid_points" in cli._EXPERIMENTS[cli.parse_config(path.read_text())["experiment"]][0])


def indented_dump(experiment, config_text, scalars, grids, duration_s):
    """The json-like envelope as ``json.dumps(doc, indent=2)`` writes it, every
    float through the pure-Python encoder: the bytes render_envelope_json
    must reproduce."""
    doc = {
        "tool": "condibeam",
        "version": cli.__version__,
        "experiment": experiment,
        "duration_s": round(duration_s, 3),
        "config": config_text,
        "results": {k: cli._scalar_text(v) if isinstance(v, complex) else v
                    for k, v in scalars.items()},
        "grids": {
            name: {
                "axis1": [gf.grid.axis1.name, gf.grid.axis1.lo,
                          gf.grid.axis1.hi, gf.grid.axis1.points],
                "axis2": [gf.grid.axis2.name, gf.grid.axis2.lo,
                          gf.grid.axis2.hi, gf.grid.axis2.points],
                "kind": gf.kind,
                "values": gf.values.tolist(),
            }
            for name, gf in grids
        },
    }
    return json.dumps(doc, indent=2) + "\n"


def assert_same_text(text, expected):
    """text == expected, reported at the first differing line (pytest's own
    diff of two grid-sized strings takes minutes)."""
    if text != expected:
        lines, want = text.splitlines(), expected.splitlines()
        i = next((i for i, pair in enumerate(zip(lines, want)) if pair[0] != pair[1]),
                 min(len(lines), len(want)))
        pytest.fail(f"line {i + 1}: {lines[i:i + 1]} != {want[i:i + 1]} "
                    f"({len(lines)} lines against {len(want)})")


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

    @pytest.mark.parametrize("config", GRID_CONFIGS)
    def test_json_matches_the_indented_dump_on_shipped_grids(self, config):
        text = (CONFIGS / config).read_text()
        experiment = cli.parse_config(text)["experiment"]
        scalars, grids, dur = cli.run_experiment(experiment, text)
        assert grids
        assert_same_text(cli.render_envelope_json(experiment, text, scalars, grids, dur),
                         indented_dump(experiment, text, scalars, grids, dur))

    @pytest.mark.parametrize("config_text", [
        "n = 2\n",
        'name = "a \\"quoted\\" \\\\ path"\n',
        "beta = 1.0  # Schrödinger's cat, α ≈ 1\n",
        '      "values": null\n      "values": [\n        [\n          1.0,\n',
    ])
    def test_json_matches_the_indented_dump_at_float_edges(self, config_text):
        axis = phasespace.Axis("x", -1.0, 1.0, 3)
        edges = phasespace.GridFunction(
            np.array([[-0.0, 5e-324, 1e308], [np.inf, -np.inf, -1e-308], [0.1, 1.0, 2.5]]),
            phasespace.PhaseGrid(axis, axis), "wigner")
        column = phasespace.GridFunction(
            np.array([[0.5], [-0.0], [np.inf]]),
            phasespace.PhaseGrid(axis, phasespace.Axis("phi", 0.0, 0.0, 1)), "quadrature")
        for scalars, grids in [
                ({"min_value": -0.0, "integral": 1e308}, [("wigner", edges)]),
                ({"values": None}, [("wigner", edges), ("quadrature", column)]),
                ({}, [("wigner", edges), ("wigner", column)]),  # the last of a name wins
                ({"x": 1}, [])]:
            assert_same_text(
                cli.render_envelope_json("wigner-grid", config_text, scalars, grids, 0.5),
                indented_dump("wigner-grid", config_text, scalars, grids, 0.5))

    @pytest.mark.parametrize("config", GRID_CONFIGS)
    def test_csv_matches_the_float_repr_rendering(self, config):
        text = (CONFIGS / config).read_text()
        _, grids, _ = cli.run_experiment(cli.parse_config(text)["experiment"], text)
        for _, gf in grids:
            a1, a2 = gf.grid.axis1, gf.grid.axis2
            rows = [",".join(repr(float(v)) for v in row) for row in gf.values]
            assert_same_text(cli.render_grid_csv(gf), "\n".join([
                f"# axis1 {a1.name} {a1.lo!r} {a1.hi!r} {a1.points}",
                f"# axis2 {a2.name} {a2.lo!r} {a2.hi!r} {a2.points}",
                f"# kind {gf.kind}", *rows]) + "\n")

    def test_complex_scalar_format(self):
        assert cli._fmt_complex(1.5 - 0.25j) == "1.5-0.25i"
        assert cli._fmt_complex(2.0 + 0j) == "2.0"
        assert cli._parse_complex(cli._fmt_complex(0.3 + 0.7j)) == 0.3 + 0.7j


# Grid windows at the edges of the float range and of the grid shape, and the
# experiments that sample them.
DEGENERATE_WINDOWS = {
    "zero-width": (1.5, 1.5, 5),
    "zero-width-at-0": (0.0, 0.0, 5),
    "subnormal-width": (-1e-320, 1e-320, 5),
    "subnormal-one-sided": (0.0, 1e-310, 3),
    "reversed": (4.0, -4.0, 9),
    "2-points": (-3.0, 3.0, 2),
    "overflowing-width": (-1e308, 1e308, 5),
}
GRID_EXPERIMENTS = {
    "q-grid-chi": ("q-grid", "state = chi\nn = 2\nbeta = 1.0\ncutoff = 32\n"),
    "q-grid-multi-cat": ("q-grid", "state = multi-cat\nn = 2\nk = 3\nbeta = 1.0\ncutoff = 32\n"),
    "quadrature-grid": ("quadrature-grid", "n = 2\nbeta = 1.0\ncutoff = 32\n"),
    **{f"wigner-grid-{method}": ("wigner-grid",
                                 f"n = 2\nbeta = 1.0\ncutoff = 32\nmethod = {method}\n")
       for method in ("closed", "numeric", "both")},
}


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

    @pytest.mark.parametrize("fmt", ["csv", "json-like"])
    @pytest.mark.parametrize("where", ["missing-directory", "directory"])
    def test_unwritable_out_is_a_config_error(self, tmp_path, capsys, fmt, where):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("n = 1\nbeta = 1\ncutoff = 32\ngrid_points = 11\n")
        out = tmp_path / "missing" / "grid.csv" if where == "missing-directory" else tmp_path
        rc = cli.main(["q-grid", "--config", str(cfg), "--format", fmt, "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.startswith("config error: cannot write output")
        assert captured.err.count("\n") == 1
        assert captured.out == ""

    def test_povm_indices_are_checked_before_the_povm_is_built(self, tmp_path, capsys,
                                                               monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("POVM built before its indices were checked")

        monkeypatch.setattr(twomode, "photon_counting_povm", refuse)
        cfg = tmp_path / "povm.cfg"
        cfg.write_text("eta = 0.8\ncutoff = 24\noutcome = 99\n")
        assert cli.main(["povm-demo", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == "config error: outcome must be in 0..24, got 99\n"

    def test_domain_error_exit_code(self, tmp_path):
        cfg = tmp_path / "dom.cfg"
        # displacement far beyond the truncation budget
        cfg.write_text("m = 0\nn = 0\nalpha = 9.0\ncutoff = 32\n")
        assert cli.main(["y-matrix", "--config", str(cfg)]) == 3

    def test_displacement_past_the_working_cap_is_a_domain_error(self, tmp_path, capsys):
        # tail_tol = 1 admits any displacement, but |alpha| = 1000 at cutoff
        # 48 would need ~2e6 working levels: refused before any is built
        cfg = tmp_path / "cap.cfg"
        cfg.write_text("m = 1\nn = 0\nalpha = 1000\ntail_tol = 1\ncutoff = 48\n")
        start = time.perf_counter()
        rc = cli.main(["y-matrix", "--config", str(cfg)])
        elapsed = time.perf_counter() - start
        err = capsys.readouterr().err
        assert rc == 3
        assert err.startswith("domain error: ") and "working levels" in err
        assert err.count("\n") == 1
        assert elapsed < 0.5

    def test_povm_demo_past_the_former_safe_block(self, tmp_path):
        # signal_n = 20 at cutoff 32: the ensemble route decomposes the POVM
        # element into Fock projectors up to |20>, above half the cutoff
        cfg = tmp_path / "povm.cfg"
        cfg.write_text("eta = 0.8\ncutoff = 32\nsignal_n = 20\noutcome = 1\n")
        out = tmp_path / "povm.json"
        rc = cli.main(["povm-demo", "--config", str(cfg), "--format", "json-like",
                       "--out", str(out)])
        assert rc == 0
        assert json.loads(out.read_text())["results"]["route_state_max_dev"] <= 1e-12

    def test_povm_demo_checks_eigenvalues_on_the_occupied_block(self, monkeypatch):
        # both routes validate a 97 x 97 density matrix whose numerical top
        # is 3: its eigenvalues are bounded on that block, with no
        # full-size eigvalsh
        sizes = []
        eigvalsh = np.linalg.eigvalsh

        def counted(mat):
            sizes.append(mat.shape[0])
            return eigvalsh(mat)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        scalars, _, _ = cli.run_experiment(
            "povm-demo", "eta = 0.8\ncutoff = 96\nsignal_n = 4\noutcome = 1\n"
                         "phi_t = 0.3\nphi_r = 1.2\n")
        assert len(sizes) == 2 and max(sizes) < 97, sizes
        assert scalars["route_state_max_dev"] <= 1e-12

    @pytest.mark.parametrize("experiment, config", [
        ("y-matrix", "m = 1\nn = 1\n"), ("povm-demo", "eta = 0.8\n")],
        ids=["y-matrix", "povm-demo"])
    def test_zero_transmittance_is_a_domain_error(self, tmp_path, capsys, experiment,
                                                  config):
        # the closed form divides by T, and both experiments build it
        cfg = tmp_path / "t0.cfg"
        cfg.write_text(f"{config}theta = {math.pi / 2!r}\ncutoff = 24\n")
        rc = cli.main([experiment, "--config", str(cfg)])
        err = capsys.readouterr().err
        assert rc == 3
        assert err.startswith("domain error: ") and "needs T != 0" in err

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

    @pytest.mark.parametrize("experiment, n, cutoff", [
        ("scheme-b", 150, 1024), ("scheme-b", 180, 1024),
        ("scheme-a", 200, 2048), ("scheme-a", 300, 2048),
    ])
    def test_high_fock_reference_runs(self, tmp_path, capsys, experiment, n, cutoff):
        # the s-ordered term (n, n) or (0, n) leaves the float range on its own
        # (m! [-(s+1)/2]^m, 1/sqrt(m! n!), sqrt((j+n)!/j!)); it is one scaled
        # product, so the run ends with p on the closed sum
        cfg = tmp_path / "high.cfg"
        cfg.write_text(f"n = {n}\nbeta = {math.sqrt(n / 2.0)!r}\ncutoff = {cutoff}\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = cli.main([experiment, "--config", str(cfg)])
        captured = capsys.readouterr()
        assert rc == 0 and captured.err == ""
        assert not caught, [str(w.message) for w in caught]
        scalars = dict(line.split(" = ") for line in captured.out.splitlines()
                       if not line.startswith("#"))
        assert float(scalars["probability"]) == pytest.approx(
            float(scalars["probability_formula"]), rel=1e-10)

    @pytest.mark.parametrize("span, method", [
        (1e3, "numeric"), (1e3, "both"),
        (1e16, "closed"), (1e16, "numeric"), (1e16, "both"),
        (1e200, "closed"), (1e200, "numeric"), (1e200, "both"),
    ])
    def test_far_wigner_grid_is_a_domain_error(self, tmp_path, capsys, span, method):
        # the numeric y-sum would alias these momenta, and the closed sum
        # leaves the float range from |x + ip| ~ 1e16
        edits = {"grid_lo": -span, "grid_hi": span, "method": method}
        lines = (CONFIGS / "two_peak_wigner.cfg").read_text().splitlines()
        keys = [line.split("#")[0].split("=")[0].strip() for line in lines]
        cfg = tmp_path / "far.cfg"
        cfg.write_text("\n".join(f"{k} = {edits[k]}" if k in edits else line
                                 for k, line in zip(keys, lines)) + "\n")
        rc = cli.main(["wigner-grid", "--config", str(cfg), "--out", str(tmp_path / "w.csv")])
        captured = capsys.readouterr()
        assert rc == 3 and captured.out == ""
        assert captured.err.startswith("domain error: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("config", ["two_peak_husimi", "five_component_cat_husimi"])
    def test_far_husimi_grid_is_zero(self, tmp_path, capsys, config):
        # e^(-|alpha|^2) underflows far out, so the overlap and the closed form
        # give exact zeros there, with no warning; only the origin is nonzero
        edits = {"grid_lo": -1e200, "grid_hi": 1e200}
        lines = (CONFIGS / f"{config}.cfg").read_text().splitlines()
        keys = [line.split("#")[0].split("=")[0].strip() for line in lines]
        cfg = tmp_path / "far.cfg"
        cfg.write_text("\n".join(f"{k} = {edits[k]}" if k in edits else line
                                 for k, line in zip(keys, lines)) + "\n")
        out = tmp_path / "q.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = cli.main(["q-grid", "--config", str(cfg), "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 0 and captured.err == ""
        assert not caught, [str(w.message) for w in caught]
        scalars = dict(line.split(" = ") for line in captured.out.splitlines()
                       if not line.startswith("#"))
        assert float(scalars["closed_form_max_abs_dev"]) < 1e-15
        q = np.loadtxt(out, delimiter=",", comments="#")
        assert q.shape == (81, 81) and np.count_nonzero(q) == 1 and q[40, 40] > 0

    @pytest.mark.parametrize("window", DEGENERATE_WINDOWS.values(), ids=DEGENERATE_WINDOWS.keys())
    @pytest.mark.parametrize("experiment", GRID_EXPERIMENTS.values(), ids=GRID_EXPERIMENTS.keys())
    def test_degenerate_grid_windows_end_in_an_exit_code(self, tmp_path, capsys, experiment,
                                                         window):
        # the exit path only: the integral of a 2-point Wigner grid is still
        # not checked against the grid's resolution (ROADMAP 8)
        name, config = experiment
        lo, hi, points = window
        cfg = tmp_path / "window.cfg"
        cfg.write_text(f"{config}grid_lo = {lo!r}\ngrid_hi = {hi!r}\ngrid_points = {points}\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = cli.main([name, "--config", str(cfg), "--out", str(tmp_path / "grid.csv")])
        err = capsys.readouterr().err
        assert rc in (0, 2, 3)
        assert err == "" if rc == 0 else err.count("\n") == 1

    @pytest.mark.parametrize("window", [(-1e-320, 1e-320, 5), (0.0, 1e-310, 3)],
                             ids=["subnormal", "subnormal-one-sided"])
    def test_sub_ulp_wigner_window_runs_the_numeric_transform(self, tmp_path, capsys, window):
        # the x spacing is so small that the y-step bound over it leaves the
        # float range: no shared lattice, each point x_i + y_j is evaluated
        lo, hi, points = window
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(f"n = 2\nbeta = 1.0\ncutoff = 32\nmethod = both\ngrid_lo = {lo!r}\n"
                       f"grid_hi = {hi!r}\ngrid_points = {points}\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = cli.main(["wigner-grid", "--config", str(cfg), "--out", str(tmp_path / "w.csv")])
        captured = capsys.readouterr()
        assert rc == 0 and captured.err == ""
        scalars = dict(line.split(" = ") for line in captured.out.splitlines()
                       if not line.startswith("#"))
        assert float(scalars["closed_vs_numeric_max_abs_dev"]) < 1e-12

    def test_chi_husimi_closed_form_past_the_float_range(self, tmp_path, capsys):
        # at n = 800 L_n(beta(a* + b*)) reaches e^1855 on the grid and
        # e^(-(|a|^2 + ln N)/2) underflows; the closed form carries their
        # product on scaled values, so it agrees with the overlap route
        cfg = tmp_path / "q800.cfg"
        cfg.write_text("state = chi\nn = 800\nbeta = 20\ncutoff = 1024\n"
                       "grid_lo = -100\ngrid_hi = 100\ngrid_points = 41\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = cli.main(["q-grid", "--config", str(cfg), "--out", str(tmp_path / "q.csv")])
        captured = capsys.readouterr()
        assert rc == 0 and captured.err == ""
        assert not caught, [str(w.message) for w in caught]
        scalars = dict(line.split(" = ") for line in captured.out.splitlines()
                       if not line.startswith("#"))
        assert float(scalars["closed_form_max_abs_dev"]) < 1e-8

    @pytest.mark.parametrize("scalars, grid_value", [
        ({"p_0": math.nan}, 0.0), ({"amp_0": complex(0.5, math.nan)}, 0.0), ({"p_0": 1.0}, math.nan),
    ], ids=["float", "complex", "grid"])
    def test_nan_result_is_a_domain_error(self, monkeypatch, scalars, grid_value):
        grid = phasespace.PhaseGrid.square(-1, 1, 2)
        values = np.full((2, 2), grid_value)
        schema, _ = cli._EXPERIMENTS["prob-scan"]
        monkeypatch.setitem(cli._EXPERIMENTS, "prob-scan", (schema, lambda params: (
            scalars, [("wigner", phasespace.GridFunction(values, grid, "wigner"))])))
        with pytest.raises(DomainError, match="prob-scan: NaN in"):
            cli.run_experiment("prob-scan", "")

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
        ("conditional_operator_demo", "m", "49", "y-matrix", "m must be <= cutoff 48"),
        ("conditional_operator_demo", "n", "49", "y-matrix", "n must be <= cutoff 48"),
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
        ("two_peak_husimi", "state", "bogus", "q-grid", "state must be chi or multi-cat"),
        ("two_peak_wigner", "method", "bogus", "wigner-grid",
         "method must be closed, numeric or both"),
        ("success_probability_scan", "beta_rule", "bogus", "prob-scan",
         "beta_rule must be half-n or fixed"),
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


def child_env():
    """The environment with this package's source first on PYTHONPATH."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def run_cli(args, timeout=120):
    """``python -m condibeam.cli`` in a child process, with this package's source."""
    return subprocess.run([sys.executable, "-m", "condibeam.cli", *args], env=child_env(),
                          capture_output=True, text=True, timeout=timeout)


def test_low_transmittance_runs_with_no_warning(tmp_path):
    # |T| = 1e-8 with n = 40 detected photons: (-R*/T)^n leaves the float
    # range on its own, T^(q-n) with it does not; at m = 0 the Jacobi factor
    # is 1, so the closed form meets the oracle at rounding level
    cfg = tmp_path / "low_t.cfg"
    cfg.write_text(f"m = 0\nn = 40\ntheta = {math.pi / 2 - 1e-8!r}\ncutoff = 160\n")
    proc = run_cli(["y-matrix", "--config", str(cfg)])
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    scalars = dict(line.split(" = ") for line in proc.stdout.splitlines()
                   if not line.startswith("#"))
    assert float(scalars["oracle_rel_frobenius_error"]) <= 1e-12


def test_y_matrix_whose_squares_underflow(tmp_path):
    # |R| = 1e-6 with n = 40 detected photons: Y's largest element is 9.3e-222,
    # so the squares of its elements underflow, but its norms do not
    cfg = tmp_path / "low_r.cfg"
    cfg.write_text("m = 0\nn = 40\ntheta = 1e-6\ncutoff = 160\n")
    proc = run_cli(["y-matrix", "--config", str(cfg)])
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    scalars = dict(line.split(" = ") for line in proc.stdout.splitlines()
                   if not line.startswith("#"))
    assert float(scalars["largest_singular_value"]) == pytest.approx(9.294e-222, rel=1e-3)
    assert float(scalars["oracle_rel_frobenius_error"]) <= 1e-12


def test_y_matrix_that_underflows_is_a_domain_error(tmp_path):
    # |R| = 1e-9: R^40 = 1e-360 takes every element of Y below the float range
    cfg = tmp_path / "zero.cfg"
    cfg.write_text("m = 0\nn = 40\ntheta = 1e-9\ncutoff = 160\n")
    proc = run_cli(["y-matrix", "--config", str(cfg)])
    assert proc.returncode == 3
    lines = proc.stderr.splitlines()
    assert lines == ["domain error: y-matrix: every element of Y underflows to 0"], proc.stderr


@pytest.mark.parametrize("experiment, config, sizes", [
    ("scheme-a", f"n = 2\nbeta = 1.0\ncutoff = {10**12}\n", f"cutoff {10**12}"),
    ("q-grid", f"n = 2\nbeta = 1.0\ncutoff = {10**12}\n",
     f"cutoff {10**12}, grid_points 81"),
    ("y-matrix", f"m = 1\nn = 1\ncutoff = {10**12}\n", f"cutoff {10**12}"),
    ("q-grid", "n = 2\nbeta = 1.0\ngrid_points = 1000000\n",
     "cutoff 48, grid_points 1000000"),
], ids=["scheme-a", "q-grid", "y-matrix", "q-grid-grid-points"])
def test_unallocatable_cutoff_is_a_domain_error(tmp_path, experiment, config, sizes):
    # the first array of a cutoff 10^12 run takes 7-15 TiB, and the first of a
    # 10^6 x 10^6 grid 14.6 TiB, so its allocation fails and no memory is
    # touched; the child's address space is capped at 64 GiB so that it fails
    # however the system overcommits.  The message names every size key.
    cfg = tmp_path / "huge.cfg"
    cfg.write_text(config)
    code = ("import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 36, 1 << 36))\n"
            "from condibeam.cli import main\n"
            f"sys.exit(main([{experiment!r}, '--config', {str(cfg)!r}, "
            f"'--out', {str(tmp_path / 'o.csv')!r}]))\n")
    proc = subprocess.run([sys.executable, "-W", "error", "-c", code], env=child_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr == f"domain error: {experiment}: cannot allocate the arrays for {sizes}\n"
    assert proc.stdout == ""


def test_non_utf8_config_is_a_config_error(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"m = 1\nn = 1\n# caf\xe9\n")
    proc = run_cli(["y-matrix", "--config", str(cfg)])
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error: cannot read config:"), \
        proc.stderr


@pytest.mark.parametrize("config", sorted(p.name for p in CONFIGS.glob("*.cfg")))
def test_runs_leave_nothing_for_the_cyclic_collector(tmp_path, config):
    # a CLI process runs without the cyclic collector (cli.entry), which is
    # safe while reference counting frees what a run makes: the only cycles
    # a run leaves are argparse's parser, 74 objects, and none holds an
    # array.  A reference cycle that holds arrays would leak in the CLI and
    # fails here instead.  The first run in a process also leaves ~350
    # objects its imports discard (no arrays); the warm-up run takes those
    # out of the count.  main itself leaves the caller's collector as it was.
    text = (CONFIGS / config).read_text()
    argv = [cli.parse_config(text)["experiment"], "--config", str(CONFIGS / config),
            "--format", "json-like", "--out", str(tmp_path / "out.json")]
    assert cli.main(argv) == 0
    assert gc.isenabled() and gc.get_freeze_count() == 0
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)  # keep what the collection finds, to inspect
    try:
        rc = cli.main(argv)
        unreachable = gc.collect()
        garbage = list(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert rc == 0
    assert unreachable <= 100, unreachable
    # arrays are not tracked by the collector; whatever holds one is
    held = [type(o).__name__ for o in garbage
            if any(isinstance(r, np.ndarray) for r in gc.get_referents(o))]
    assert not held, held


@pytest.mark.parametrize("args, code, stderr", [
    (["y-matrix"], 2, "config error: --config is required\n"),
    (["--help"], 0, ""),
], ids=["returns", "argparse-exits"])
def test_entry_runs_main_without_the_collector(monkeypatch, capsys, args, code, stderr):
    seen = []
    real_main = cli.main

    def recording_main():
        seen.append((gc.isenabled(), gc.get_freeze_count()))
        return real_main()

    # entry sets OPENBLAS_NUM_THREADS in os.environ: it runs on a copy, so the
    # setting does not reach later tests' children (delenv of an unset name
    # would restore nothing)
    environ = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    monkeypatch.setattr(os, "environ", environ)
    monkeypatch.setattr(sys, "argv", ["condibeam", *args])
    monkeypatch.setattr(cli, "main", recording_main)
    try:
        try:
            rc = cli.entry()
        except SystemExit as exc:  # argparse's --help
            rc = exc.code
        enabled, frozen = gc.isenabled(), gc.get_freeze_count()
    finally:
        gc.unfreeze()
        gc.enable()
    assert rc == code
    assert seen == [(False, 0)]
    assert not enabled and frozen > 0
    assert capsys.readouterr().err == stderr
    assert environ["OPENBLAS_NUM_THREADS"] == "1"


def blas_env(threads):
    """child_env() with OPENBLAS_NUM_THREADS set to ``threads``, or removed if None."""
    env = child_env()
    env.pop("OPENBLAS_NUM_THREADS", None)
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    return env


@pytest.mark.parametrize("threads, expected", [(None, "1"), ("2", "2")],
                         ids=["unset", "user-set"])
def test_entry_sets_one_blas_thread_before_numpy_loads(threads, expected):
    # OpenBLAS reads its thread count once, when numpy loads, so entry must set
    # it first; a count the user chose is kept
    code = textwrap.dedent("""
        import os, sys
        from condibeam import cli
        seen = []
        cli.main = lambda: seen.append(
            (os.environ.get("OPENBLAS_NUM_THREADS"), "numpy" in sys.modules)) or 0
        assert cli.entry() == 0
        print(seen)
    """)
    proc = subprocess.run([sys.executable, "-c", code], env=blas_env(threads),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"[({expected!r}, False)]\n"


def test_main_leaves_the_environment_as_it_was(tmp_path):
    # only the process entry sets the BLAS thread count; a library caller of
    # main(argv) keeps its environment, and numpy its threads
    cfg = CONFIGS / "conditional_operator_demo.cfg"
    code = textwrap.dedent(f"""
        import os
        from condibeam import cli
        before = dict(os.environ)
        assert cli.main(["y-matrix", "--config", {str(cfg)!r}, "--format", "json-like",
                         "--out", {str(tmp_path / "y.json")!r}]) == 0
        assert dict(os.environ) == before
    """)
    proc = subprocess.run([sys.executable, "-c", code], env=blas_env(None),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.skipif(sys.platform != "linux", reason="counts threads in /proc/self/task")
def test_cli_process_runs_one_thread(tmp_path):
    # a computing run through entry starts no OpenBLAS worker threads
    cfg = CONFIGS / "conditional_operator_demo.cfg"
    code = textwrap.dedent(f"""
        import os, sys
        from condibeam import cli
        sys.argv = ["condibeam", "y-matrix", "--config", {str(cfg)!r},
                    "--format", "json-like", "--out", {str(tmp_path / "y.json")!r}]
        assert cli.entry() == 0
        assert "numpy" in sys.modules
        print(len(os.listdir("/proc/self/task")))
    """)
    proc = subprocess.run([sys.executable, "-c", code], env=blas_env(None),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "1"


def test_output_is_independent_of_the_core_count(tmp_path):
    # at cutoff 2048 threaded OpenBLAS sums Y's products in an order set by the
    # thread count, which moved largest_singular_value in its last digits; a
    # CLI process runs one thread unless told otherwise, so leaving the
    # variable out gives the output of OPENBLAS_NUM_THREADS=1
    cfg = tmp_path / "y2048.cfg"
    cfg.write_text(f"m = 2\nn = 1\nalpha = 0.3\nbeta = 0.2\ntheta = {math.pi / 4!r}\n"
                   "cutoff = 2048\n")
    outputs = []
    for threads in (None, "1"):
        proc = subprocess.run([sys.executable, "-m", "condibeam.cli", "y-matrix",
                               "--config", str(cfg)], env=blas_env(threads),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outputs.append([line for line in proc.stdout.splitlines()
                        if "duration_s" not in line])
    assert outputs[0] == outputs[1]


def console_script():
    """The ``condibeam`` console script's ``module:function`` in pyproject.toml,
    read as text (tomllib is not in Python 3.10)."""
    text = (CONFIGS.parent / "pyproject.toml").read_text()
    scripts = text.split("\n[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    targets = [line.partition("=")[2].strip().strip('"') for line in scripts.splitlines()
               if line.partition("=")[0].strip() == "condibeam"]
    assert len(targets) == 1, scripts
    return targets[0]


def test_console_script_is_the_process_entry():
    assert console_script() == "condibeam.cli:entry"


@pytest.mark.parametrize("route", ["module", "console-script"])
@pytest.mark.parametrize("case", ["help", "selftest", "unknown-key", "domain-error"])
def test_exit_codes_through_both_routes(tmp_path, route, case):
    # python -m condibeam.cli and the installed script (which imports the
    # pyproject target and exits with what it returns) end the same way
    cfg = tmp_path / "exp.cfg"
    args, code, stderr = {
        "help": (["--help"], 0, ""),
        "selftest": (["selftest"], 0, ""),
        "unknown-key": (["y-matrix", "--config", str(cfg)], 2,
                        "config error: unknown config key(s) bogus; allowed: alpha, beta, "
                        "cutoff, m, n, phi_r, phi_t, tail_tol, theta\n"),
        "domain-error": (["y-matrix", "--config", str(cfg)], 3,
                         "domain error: y-matrix: every element of Y underflows to 0\n"),
    }[case]
    cfg.write_text("m = 0\nn = 40\ntheta = 1e-9\ncutoff = 160\n"
                   + ("bogus = 1\n" if case == "unknown-key" else ""))
    if route == "module":
        proc = run_cli(args)
    else:
        module, _, function = console_script().partition(":")
        script = f"import sys\nfrom {module} import {function}\nsys.exit({function}())\n"
        proc = subprocess.run([sys.executable, "-c", script, *args], env=child_env(),
                              capture_output=True, text=True, timeout=120)
    assert proc.returncode == code, proc.stderr
    assert proc.stderr == stderr
    assert bool(proc.stdout) == (code == 0)


def loaded_modules(code):
    """The package submodules (short names), and the scipy modules, ``numpy``,
    ``numpy.ma`` (which ``np.unique`` without ``return_inverse`` imports) and
    ``dataclasses`` (which numpy, json and argparse do not import), loaded
    once ``code`` has run in a fresh interpreter with this package's source."""
    code = textwrap.dedent(code) + textwrap.dedent("""
        import sys
        print(" ".join(sorted(m.partition(".")[2] for m in sys.modules
                              if m.startswith("condibeam."))))
        print(" ".join(sorted(m for m in sys.modules if m.startswith("scipy")
                              or m in ("numpy", "numpy.ma", "dataclasses"))))
    """)
    proc = subprocess.run([sys.executable, "-c", code], env=child_env(), capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    package, scipy = proc.stdout.splitlines()[-2:]
    return set(package.split()), set(scipy.split())


def test_runtime_imports_no_scipy(tmp_path):
    # scipy is a test extra only: the CLI, its selftest and a grid experiment
    # must run on numpy and the standard library alone
    cfg = tmp_path / "wigner.cfg"
    cfg.write_text("n = 2\nbeta = 1\ncutoff = 32\ngrid_points = 41\n")
    _, loaded = loaded_modules(f"""
        import condibeam.cli
        assert condibeam.cli.main(["selftest"]) == 0
        assert condibeam.cli.main(["wigner-grid", "--config", {str(cfg)!r},
                                   "--format", "json-like",
                                   "--out", {str(tmp_path / "w.json")!r}]) == 0
    """)
    assert loaded <= {"numpy"}, loaded


def test_package_import_loads_no_submodule():
    assert loaded_modules("import condibeam") == (set(), set())


def test_cli_import_loads_only_cli_and_errors():
    # numpy too stays unloaded: it loads when a run computes
    assert loaded_modules("import condibeam.cli") == ({"cli", "errors"}, set())


# runs that end before any computation, with the exit code each ends in and
# its stderr (None: argparse's usage text)
NO_COMPUTE_CASES = {
    "help": ('["--help"]', None, 0, ""),
    "unknown-experiment": ('["no-such-experiment", "--config", CFG]', "n = 2\n", 2, None),
    "missing-config": ('["scheme-a"]', None, 2, "config error: --config is required\n"),
    "unknown-key": ('["scheme-a", "--config", CFG]', "n = 2\nbeta = 1\nbogus = 1\n", 2,
                    "config error: unknown config key(s) bogus; allowed: beta, cutoff, n, "
                    "phi_r, phi_t, route, tail_tol\n"),
    "experiment-mismatch": ('["scheme-a", "--config", CFG]',
                            "experiment = scheme-b\nn = 2\nbeta = 1\n", 2,
                            "config error: config says experiment = 'scheme-b', "
                            "command line says 'scheme-a'\n"),
    "bad-route": ('["scheme-a", "--config", CFG]', "n = 2\nbeta = 1\nroute = bogus\n", 2,
                  "config error: route must be closed or oracle, got 'bogus'\n"),
    "bad-state": ('["q-grid", "--config", CFG, "--format", "json-like"]',
                  "n = 2\nbeta = 1\nstate = bogus\n", 2,
                  "config error: state must be chi or multi-cat, got 'bogus'\n"),
    "bad-method": ('["wigner-grid", "--config", CFG, "--format", "json-like"]',
                   "n = 2\nbeta = 1\nmethod = bogus\n", 2,
                   "config error: method must be closed, numeric or both, got 'bogus'\n"),
    "bad-beta-rule": ('["prob-scan", "--config", CFG]', "beta_rule = bogus\n", 2,
                      "config error: beta_rule must be half-n or fixed, got 'bogus'\n"),
    "csv-without-out": ('["wigner-grid", "--config", CFG]', "n = 2\nbeta = 1\n", 2,
                        "config error: --out is required for grid experiments "
                        "with --format csv\n"),
}


@pytest.mark.parametrize("case", sorted(NO_COMPUTE_CASES))
def test_dispatch_and_config_errors_load_no_numpy(tmp_path, case):
    argv, config, code, stderr = NO_COMPUTE_CASES[case]
    cfg = tmp_path / "exp.cfg"
    if config is not None:
        cfg.write_text(config)
    err = tmp_path / "stderr.txt"
    package, loaded = loaded_modules(f"""
        import contextlib, io
        import condibeam.cli
        CFG = {str(cfg)!r}
        with contextlib.redirect_stdout(io.StringIO()), open({str(err)!r}, "w") as err, \\
                contextlib.redirect_stderr(err):
            try:
                rc = condibeam.cli.main({argv})
            except SystemExit as exc:  # argparse's --help and usage errors
                rc = exc.code
        assert rc == {code!r}, rc
    """)
    assert package == {"cli", "errors"}, package
    assert not loaded, loaded
    if stderr is not None:
        assert err.read_text() == stderr


# each experiment on a small config and its default route, with the package
# modules it must not load: the oracle and selftest only where it runs them,
# and Y's modules only where it builds Y
NO_Y = {"twomode", "selftest", "conditional", "ordering", "beamsplitter"}
IMPORT_CASES = {
    "y-matrix": ("m = 2\nn = 1\nalpha = 0.3\ncutoff = 24\n", {"cats", "phasespace", "selftest"}),
    "povm-demo": ("eta = 0.8\ncutoff = 24\n", {"cats", "phasespace", "selftest"}),
    "wigner-grid": ("n = 2\nbeta = 1\ncutoff = 24\ngrid_points = 11\n", NO_Y),
    "q-grid": ("n = 2\nbeta = 1\ncutoff = 24\ngrid_points = 11\n", NO_Y),
    "quadrature-grid": ("n = 2\nbeta = 1\ncutoff = 24\ngrid_points = 11\nphi_points = 5\n",
                        NO_Y),
    "scheme-a": ("n = 2\nbeta = 1\ncutoff = 24\n", {"twomode", "selftest"}),
    "scheme-b": ("n = 2\nbeta = 1\ncutoff = 24\n", {"twomode", "selftest"}),
    "multi-cat": ("n = 2\nk = 2\nbeta = 1\ncutoff = 24\n", NO_Y),
    "prob-scan": ("n_max = 4\n", NO_Y),
}


@pytest.mark.parametrize("experiment", sorted(IMPORT_CASES))
def test_experiment_loads_only_what_it_runs(tmp_path, experiment):
    config, absent = IMPORT_CASES[experiment]
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(config)
    package, loaded = loaded_modules(f"""
        import condibeam.cli
        assert condibeam.cli.main([{experiment!r}, "--config", {str(cfg)!r},
                                   "--format", "json-like",
                                   "--out", {str(tmp_path / "o.json")!r}]) == 0
    """)
    assert not package & absent, package & absent
    # the package's records are built without dataclasses
    assert "dataclasses" not in loaded
    assert loaded == {"numpy"}, loaded


@pytest.mark.parametrize("experiment", sorted(IMPORT_CASES))
def test_grids_exactly_where_the_schema_has_grid_points(experiment):
    # main refuses csv without --out before the run by this rule
    assert set(IMPORT_CASES) == set(cli._EXPERIMENTS)
    schema, _ = cli._EXPERIMENTS[experiment]
    _, grids, _ = cli.run_experiment(experiment, IMPORT_CASES[experiment][0])
    assert bool(grids) == ("grid_points" in schema)


@pytest.mark.parametrize("state", ["chi", "multi-cat"])
def test_q_grid_leaves_numpy_ma_unloaded(tmp_path, state):
    # the Husimi overlap takes its distinct gaps without np.unique, whose
    # first call imports numpy.ma
    cfg = tmp_path / "q.cfg"
    cfg.write_text(f"state = {state}\nn = 3\nk = 3\nbeta = 1.2\ncutoff = 32\n"
                   "grid_points = 11\n")
    _, loaded = loaded_modules(f"""
        import condibeam.cli
        assert condibeam.cli.main(["q-grid", "--config", {str(cfg)!r},
                                   "--format", "json-like",
                                   "--out", {str(tmp_path / "o.json")!r}]) == 0
    """)
    assert "numpy.ma" not in loaded, loaded


def test_oracle_route_loads_the_oracle(tmp_path):
    cfg = tmp_path / "oracle.cfg"
    cfg.write_text("n = 2\nbeta = 1\ncutoff = 24\nroute = oracle\n")
    package, _ = loaded_modules(f"""
        import condibeam.cli
        assert condibeam.cli.main(["scheme-a", "--config", {str(cfg)!r},
                                   "--format", "json-like",
                                   "--out", {str(tmp_path / "o.json")!r}]) == 0
    """)
    assert "twomode" in package


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
        assert "ok   wigner-numeric-vs-closed: " in out
        assert "ok   closed-form-vs-oracle-low-transmittance: " in out

    def test_corrupted_coefficient_is_caught(self, monkeypatch, capsys):
        # flip the sign of every s-ordered monomial of the closed form: the
        # oracle comparison must fail and the exit code must be nonzero
        original = conditional._s_ordered_scaled

        def flipped(spec, dim, *args):
            log_mag, values = original(spec, dim, *args)
            return log_mag, -1.0 * values

        monkeypatch.setattr(conditional, "_s_ordered_scaled", flipped)
        assert cli.main(["selftest"]) == 4
        out = capsys.readouterr().out
        assert "FAIL closed-form-vs-oracle" in out
