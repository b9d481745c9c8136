"""The benchmark's traced workloads still run against the package.

``bench/tracer.py`` wraps the package's public functions and
``FockOperator.__matmul__``, and ``bench/workloads.py`` calls the library
and the CLI directly, so a change to ``src/`` can break a traced benchmark
run while every other test passes.  This runs each op of the cat-pipeline
and oracle-verify workloads once, traced, with warnings as errors, in a
fresh interpreter (the tracer patches module attributes for good).  The
full benchmark smoke test is ``bench/test_smoke.py``.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

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
