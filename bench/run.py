"""Benchmark for condibeam: cold CLI runs, the cat pipeline at scale, oracle verification.

Run from the repository root:

    python3 bench/run.py --workload cold-cli|cat-pipeline|oracle-verify \\
        --seed N --seconds S --trace 0|1

Each run is a closed loop with one client in one process: the ops of a
workload run one after another, pass after pass, until ``--seconds`` have
passed (at least one pass).  Each op's result is checked against a reference
(see workloads.py); a raise or a mismatch counts as a failed op.  An op may
name the exception it raises at the baseline (a known defect); that exact
raise is reported on its own line and left out of ``attempted``/``failed``,
and any other outcome of the op is checked like the rest.

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json:

* ``setup_s``: median wall time of fresh ``python -c "import condibeam.cli"``
  processes, three before the first pass and one after each pass;
* ``wall_cal``: time of one pass in calibration units.  A calibration
  sample, fixed work that runs no condibeam code (see
  ``calibration_sample``), is taken after every op.  Each op's time (the
  op call only, checks excluded; for cold-cli, process spawn included) is
  divided by the median calibration sample of its pass, and the pass is
  the sum over its ops of each op's median of these ratios.  The speed of
  a shared machine drifts by +-20% over minutes, which moves raw seconds
  between runs by more than a bound allows; the ratio cancels most of
  that drift and still moves one for one with the program's own cost.
  The same pass in seconds (``wall_s``) is printed on its own line;
* ``peak_rss_mb``: the largest resident set of a process doing the work
  (each CLI child for cold-cli, this process otherwise).

``--trace 1`` reports the per-layer metrics: half of the time runs untraced
passes, then timing wrappers are installed (tracer.py) and the other half
runs traced; ``trace.overhead_frac`` compares the two.  End-to-end figures
never come from a traced run.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The lines before it give each
metric with its sample count, the failed fraction and the environment.
The full record (environment, per-op outcomes and, when traced, every
span) is written to ``.bench_out/<workload>-seed<N>-trace<T>.json.gz``.

The workloads leave the BLAS thread count at its default, run the CLI
children one at a time, and pin no CPUs.
"""

import argparse
import functools
import gzip
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("cold-cli", "cat-pipeline", "oracle-verify")
SETUP_FIRST = 3
IMPORTTIME_REPS = 3
CAL_LOOP = 400_000
CAL_DIM = 300
# printed with the end-to-end metrics but not among them: raw seconds drift
# with the machine's speed by more than a bound allows
SHOWN_ONLY = {"wall_s": "s", "calibration_s": "s"}


@dataclass
class Outcome:
    op: str
    seconds: float
    status: str  # "ok", "failed" or "known_defect"
    error: str = None
    info: dict = field(default_factory=dict)
    result: object = None


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def environment():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "loadavg_start": os.getloadavg(),
    }


def run_op(op):
    start = time.perf_counter()
    try:
        result = op.run()
    except Exception as exc:
        seconds = time.perf_counter() - start
        error = f"{type(exc).__name__}: {exc}"
        known = op.known_defect
        if known and type(exc).__name__ == known[0] and str(exc).startswith(known[1]):
            return Outcome(op.name, seconds, "known_defect", error)
        return Outcome(op.name, seconds, "failed", error)
    seconds = time.perf_counter() - start
    try:
        info = op.check(result)
    except Exception as exc:
        return Outcome(op.name, seconds, "failed", f"{type(exc).__name__}: {exc}")
    return Outcome(op.name, seconds, "ok", info=info, result=result)


def run_passes(ops, seconds, collect=None, between=None, after_op=None):
    """Passes over ``ops`` until ``seconds`` have gone by; spans per op if traced.

    ``after_op`` runs after each op and ``between`` after each pass, both
    outside the ops' timing.
    """
    passes, spans = [], []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        outcomes, pass_spans = [], []
        for op in ops:
            outcomes.append(run_op(op))
            if collect:
                pass_spans.append(collect(outcomes[-1]))
            if after_op:
                after_op()
        passes.append(outcomes)
        spans.append(pass_spans)
        if between:
            between()
    return passes, spans


def pass_seconds(passes):
    return [sum(o.seconds for o in outcomes) for outcomes in passes]


def typical_pass_seconds(passes):
    """Sum over the ops of each op's median time: one pass, robust to a stray slow op."""
    return sum(statistics.median(p[i].seconds for p in passes) for i in range(len(passes[0])))


def typical_pass_cal(passes, cal):
    """Like ``typical_pass_seconds``, with each op's time in units of its pass's calibration."""
    k = len(passes[0])
    scale = [statistics.median(cal[i * k:(i + 1) * k]) for i in range(len(passes))]
    return sum(statistics.median(p[i].seconds / c for p, c in zip(passes, scale))
               for i in range(k))


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def setup_times(reps):
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import condibeam.cli"], env=child_env(),
                       cwd=ROOT, check=True, stdin=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return times


@functools.cache
def calibration_matrix():
    a = np.random.default_rng(0).standard_normal((CAL_DIM, CAL_DIM))
    return a + a.T


def calibration_sample():
    """One sample of the machine's current speed, from work that runs no condibeam code.

    The times of three fixed kernels, one for each kind of work the workloads
    do: a pure-Python loop, two numpy ``eigh`` calls on a fixed symmetric
    matrix, and a bare interpreter start.
    """
    start = time.perf_counter()
    total = 0
    for i in range(CAL_LOOP):
        total += i * i % 7
    loop = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(2):
        np.linalg.eigh(calibration_matrix())
    dense = time.perf_counter() - start
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], env=child_env(), cwd=ROOT, check=True,
                   stdin=subprocess.DEVNULL)
    spawn = time.perf_counter() - start
    return loop, dense, spawn


def import_times():
    import tracer
    runs = []
    for _ in range(IMPORTTIME_REPS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import condibeam.cli"],
                              env=child_env(), cwd=ROOT, check=True, capture_output=True,
                              text=True, stdin=subprocess.DEVNULL)
        runs.append(tracer.import_times_ms(proc.stderr))
    return tracer.median_metrics(runs)


def build_ops(workload, seed, traced, tmp):
    import workloads
    if workload == "cold-cli":
        return workloads.cold_cli_ops(ROOT, child_env(), tmp, traced,
                                      workloads.load_reference())
    sys.path.insert(0, str(SRC))
    if workload == "cat-pipeline":
        return workloads.cat_pipeline_ops(seed)
    return workloads.oracle_verify_ops(seed)


def peak_rss(workload, passes):
    if workload == "cold-cli":
        return max(o.result.maxrss_mb for outcomes in passes for o in outcomes if o.result)
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def accuracy(passes):
    """Largest closed-vs-oracle and closed-vs-numeric deviations seen."""
    oracle = closed = 0.0
    for outcomes in passes:
        for o in outcomes:
            scalars = o.info.get("scalars", {})
            oracle = max(oracle, scalars.get("oracle_rel_frobenius_error", 0.0))
            closed = max(closed, scalars.get("closed_form_max_abs_dev", 0.0),
                         scalars.get("closed_vs_numeric_max_abs_dev", 0.0))
    return {"conditional.oracle_rel_dev_max": oracle, "phasespace.closed_dev_max": closed}


def end_to_end(workload, seed, seconds, tmp):
    # set-up samples are spread over the run, so that one slow moment of a
    # shared machine does not set the median
    setup = setup_times(SETUP_FIRST)
    ops = build_ops(workload, seed, False, tmp)
    cal = []
    passes, _ = run_passes(ops, seconds, between=lambda: setup.extend(setup_times(1)),
                           after_op=lambda: cal.append(calibration_sample()))
    walls = pass_seconds(passes)
    cal_s = [statistics.geometric_mean(sample) for sample in cal]
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": typical_pass_seconds(passes),
        "calibration_s": statistics.median(cal_s),
        "calibration_samples": cal,
        "peak_rss_mb": peak_rss(workload, passes),
    }
    values["wall_cal"] = typical_pass_cal(passes, cal_s)
    counts = {
        "setup_s": f"median of {len(setup)} fresh imports, q1-q3 %.4f-%.4f" % quartiles(setup),
        "wall_s": f"sum of per-op medians over {len(walls)} passes of {len(ops)} ops; "
                  "pass q1-q3 %.4f-%.4f" % quartiles(walls),
        "calibration_s": f"median of {len(cal)} calibration samples (geometric mean of the "
                         "three kernels), q1-q3 %.6f-%.6f" % quartiles(cal_s),
        "wall_cal": f"sum of per-op medians over {len(walls)} passes of {len(ops)} ops, "
                    "each op's time over its pass's median calibration sample",
        "peak_rss_mb": ("max over %d CLI children" % sum(map(len, passes))
                        if workload == "cold-cli" else "this process, 1 sample"),
    }
    return values, counts, passes, []


def per_layer(workload, seed, seconds, tmp):
    import tracer
    values = import_times()
    ops = build_ops(workload, seed, False, tmp)
    plain, _ = run_passes(ops, seconds / 2)
    if workload == "cold-cli":
        ops = build_ops(workload, seed, True, tmp)
        traced, spans = run_passes(ops, seconds / 2, lambda o: o.result.spans if o.result else [])
    else:
        t = tracer.Tracer()
        tracer.install(t)
        traced, spans = run_passes(ops, seconds / 2, lambda o: t.take())
    values.update(tracer.median_metrics([tracer.pass_metrics(s) for s in spans]))
    values["cli.run_experiment_ms"] = statistics.median(
        1e3 * sum(o.info.get("duration_s", 0.0) for o in outcomes) for outcomes in plain)
    values.update(accuracy(plain + traced))
    values["trace.overhead_frac"] = (typical_pass_seconds(traced)
                                     / typical_pass_seconds(plain) - 1.0)
    counts = {name: f"median of {len(traced)} traced passes" for name in values}
    counts.update({name: f"median of {IMPORTTIME_REPS} fresh -X importtime processes"
                   for name in values if name.startswith("import.")})
    counts["cli.run_experiment_ms"] = f"median of {len(plain)} untraced passes"
    counts["trace.overhead_frac"] = f"{len(traced)} traced vs {len(plain)} untraced passes"
    for name in ("conditional.oracle_rel_dev_max", "phasespace.closed_dev_max"):
        counts[name] = f"max over {len(plain) + len(traced)} passes"
    return values, counts, plain + traced, spans


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "condibeam" / "cli.py").is_file() or not (ROOT / "configs").is_dir():
        sys.exit(f"bench: no condibeam sources (src/condibeam, configs/) under {ROOT}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    env = environment()
    tmp = OUT / f"tmp-{args.workload}-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        measure = per_layer if args.trace else end_to_end
        values, counts, passes, spans = measure(args.workload, args.seed, args.seconds, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    env["loadavg_end"] = os.getloadavg()

    outcomes = [o for p in passes for o in p]
    checked = [o for o in outcomes if o.status != "known_defect"]
    failures = [o for o in checked if o.status == "failed"]
    known = [o for o in outcomes if o.status == "known_defect"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "metrics": metrics, "samples": counts,
        "attempted": len(checked), "failed": len(failures),
        "failures": [[o.op, o.error] for o in failures],
        "known_defects": [[o.op, o.error] for o in known],
        "passes": [[[o.op, o.status, o.seconds] for o in p] for p in passes],
        # [loop, eigh, interpreter start] seconds, one sample after each op
        "calibration": values.get("calibration_samples"),
        # [op index, name, start, end, parent, exception, attrs]; times in us
        "spans": [[[[i, name, round(1e6 * start), round(1e6 * end), *rest]
                    for name, start, end, *rest in op_spans]
                   for i, op_spans in enumerate(pass_spans)]
                  for pass_spans in spans],
    }
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json.gz"
    path.write_bytes(gzip.compress(json.dumps(record).encode()))

    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(passes)} passes, record in {path.relative_to(ROOT)}")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:14.6g} {m['unit']:6s} {counts[name]}")
    for name, unit in SHOWN_ONLY.items():
        if name in values:
            print(f"  {name:40s} {values[name]:14.6g} {unit:6s} {counts[name]}")
    frac = len(failures) / len(checked) if checked else 0.0
    print(f"  {'failed_frac':40s} {frac:14.6g} {'1':6s} {len(failures)} failed of "
          f"{len(checked)} ops attempted")
    for o in failures[:10]:
        print(f"  FAILED {o.op}: {o.error}")
    for name in sorted({o.op for o in known}):
        errors = sorted({o.error.split(":")[0] for o in known if o.op == name})
        n = sum(o.op == name for o in known)
        print(f"  known defect, not counted as failed: {name} raised {', '.join(errors)} "
              f"in {n} of {len(passes)} passes")
    print(json.dumps({"correct": not failures, "attempted": len(checked),
                      "failed": len(failures), "metrics": metrics}))


if __name__ == "__main__":
    main()
