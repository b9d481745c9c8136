"""The benchmark's workloads and recorded CLI output still hold for the package.

``bench/tracer.py`` wraps the package's public functions and
``FockOperator.__matmul__``, and ``bench/workloads.py`` calls the library
and the CLI directly, so a change to ``src/`` can break a traced benchmark
run while every other test passes.  This runs each op of the cat-pipeline
and oracle-verify workloads once, traced, with warnings as errors, in a
fresh interpreter (the tracer patches module attributes for good).  It also
runs every shipped config in-process and compares its envelope with the
cold-cli workload's recorded output, so a renamed result key or a drift
past 1e-9 shows here and not only in a benchmark run.  The full benchmark
smoke test is ``bench/test_smoke.py``.
"""

import importlib.util
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

from condibeam import cli

ROOT = Path(__file__).resolve().parents[1]


def test_traced_workload_ops_pass_their_checks():
    code = textwrap.dedent("""
        import tracer
        import workloads

        t = tracer.Tracer()
        tracer.install(t)
        for op in workloads.cat_pipeline_ops(7) + workloads.oracle_verify_ops(7):
            op.check(op.run())
        assert t.take(), "the tracer recorded no spans"
    """)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "bench")]))
    proc = subprocess.run([sys.executable, "-W", "error", "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-3000:]


def load_workloads():
    """``bench/workloads.py`` as a module, without putting ``bench/`` on sys.path."""
    path = ROOT / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_shipped_configs_match_the_cold_cli_reference(tmp_path):
    workloads = load_workloads()
    reference = workloads.load_reference()
    configs = sorted((ROOT / "configs").glob("*.cfg"))
    assert sorted(reference) == [cfg.name for cfg in configs]
    for cfg in configs:
        out = tmp_path / f"{cfg.stem}.json"
        rc = cli.main([workloads._experiment_of(cfg), "--config", str(cfg),
                       "--format", "json-like", "--out", str(out)])
        assert rc == 0, cfg.name
        envelope = json.loads(out.read_text())
        assert envelope["config"] == cfg.read_text()
        workloads.compare_envelope(envelope, reference[cfg.name])
