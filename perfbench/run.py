#!/usr/bin/env python3
"""frobforge benchmark: one workload per invocation, one thread, one
closed-loop client running its jobs back to back in-process.

    python3 perfbench/run.py --workload an-numeric --seed 1 --seconds 20 --trace 0

The library is imported from `src/` of the checkout this file sits in.  With
`--trace 0` the run sets up `SETUP_REPEATS` times (reporting the median),
runs the measured job list once, verifies every result against its gate
after the timed phase, and prints the end-to-end metrics.  With `--trace 1`
it first runs the same workload untraced in a child process, then sets up
once and runs the job list with the tracer installed, writes the spans to
`perfbench/out/`, and prints the per-layer metrics, including the tracing
overhead.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import os
import sys

# Pin the environment before numpy is imported: one BLAS/OpenMP thread and
# mpmath's default working precision.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("FROBFORGE_PRECISION", None)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOAD_NAMES = ("an-exact", "qh-series", "an-numeric", "braid-orbit")
DEFAULT_SEED = 1
HELD_OUT_SEED = 20261017  # never used while the benchmark was tuned
NOMINAL_SECONDS = 20  # run_seconds in BENCHMARK.json; scale 1.0 of the seeded jobs
SETUP_REPEATS = 3
TAIL_BEYOND = 10  # jobs that must lie beyond the reported tail percentile
CHILD_TIMEOUT_S = 150
MAX_FACTS = {"compat_residual"}
# Median time of calibration_chunk() on the reference machine (2-vCPU x86-64
# virtual machine, Python 3.11.7); every reported time is in seconds at that speed.
REFERENCE_CHUNK_S = 0.00075
SAMPLE_INTERVAL_S = 0.05
LOOKBACK_S = 0.25


def tail_latency(latencies: list[float]) -> tuple[float, float]:
    """(latency, percentile) at the highest percentile with TAIL_BEYOND jobs
    beyond it; the maximum when there are too few jobs."""
    xs = sorted(latencies)
    k = len(xs) - TAIL_BEYOND
    if k < 1:
        return xs[-1], 100.0
    return xs[k - 1], 100.0 * k / len(xs)


def calibration_chunk() -> float:
    """Time of a fixed piece of pure-Python work (Fraction arithmetic and dict
    updates, the exact layer's staple) that shares no code with frobforge."""
    enabled = gc.isenabled()
    gc.disable()
    start = perf_counter()
    acc = Fraction(0)
    for i in range(1, 100):
        acc += Fraction(i, i + 7) * Fraction(3, i + 1)
    table: dict = {}
    for i in range(800):
        key = (i % 17, i % 5)
        table[key] = table.get(key, 0) + i
    elapsed = perf_counter() - start
    if enabled:
        gc.enable()
    return elapsed


class Speedometer:
    """Rescales timed spans to the reference host speed.

    Host speed on the reference machine drifts by +-20 % over seconds while
    the ratio of frobforge's speed to the calibration chunk's stays within a
    few per cent, so a SIGALRM timer runs the chunk every SAMPLE_INTERVAL_S.
    A span's raw time excludes the chunks run inside it and is multiplied by
    REFERENCE_CHUNK_S / (mean chunk time over the span and the LOOKBACK_S
    before it)."""

    def __init__(self):
        self.samples = [(perf_counter(), calibration_chunk())]
        self.spent = 0.0

    def _tick(self, signum, frame):
        start = perf_counter()
        self.samples.append((start, calibration_chunk()))
        self.spent += perf_counter() - start

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def time(self, fn):
        """Run fn; returns ((result, error), raw seconds, reference seconds)."""
        spent, start = self.spent, perf_counter()
        try:
            outcome = (fn(), None)
        except Exception as exc:  # a failing job is counted, not fatal
            outcome = (None, f"raised {type(exc).__name__}: {exc}")
        raw = perf_counter() - start - (self.spent - spent)
        chunks = []
        for t, chunk in reversed(self.samples):
            if t < start - LOOKBACK_S:
                break
            chunks.append(chunk)
        chunk = statistics.fmean(chunks) if chunks else self.samples[-1][1]
        return outcome, raw, raw * REFERENCE_CHUNK_S / chunk


def run_jobs(jobs, meter, tracer=None):
    """Run every job back to back; returns per-job (result, error) and the
    raw and reference-speed latencies."""
    outcomes, raw, latencies = [], [], []
    for index, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = index
            span = tracer.open("job." + job.kind)
        outcome, seconds, normalised = meter.time(job.run)
        if tracer is not None:
            tracer.close(span)
        outcomes.append(outcome)
        raw.append(seconds)
        latencies.append(normalised)
    return outcomes, raw, latencies


def verify(jobs, outcomes):
    """Gate every result; returns the failure lines and the job facts, summed
    except for those in MAX_FACTS."""
    failures, facts = [], {}
    for job, (result, error) in zip(jobs, outcomes):
        if error is None:
            try:
                error = job.check(result)
            except Exception as exc:
                error = f"gate raised {type(exc).__name__}: {exc}"
        if error is not None:
            failures.append(f"{job.kind} {job.label}: {error}")
            continue
        for key, value in (job.facts(result) if job.facts else {}).items():
            if key in MAX_FACTS:
                facts[key] = max(facts.get(key, value), value)
            else:
                facts[key] = facts.get(key, 0) + value
    return failures, facts


def untraced(builder, name, seed, scale, import_s):
    setups = []
    with Speedometer() as meter:
        for _ in range(SETUP_REPEATS):
            (jobs, error), _, normalised = meter.time(
                lambda: builder(random.Random(f"{name}:{seed}"), scale))
            if error:
                raise RuntimeError(f"set-up failed: {error}")
            setups.append(normalised)
        outcomes, raw, latencies = run_jobs(jobs, meter)
    failures, _ = verify(jobs, outcomes)
    tail, pct = tail_latency(latencies)
    wall = sum(latencies)
    print(f"setup runs (s): {', '.join(f'{s:.3f}' for s in setups)}; imports {import_s:.3f} s")
    print(f"measured phase: {sum(raw):.3f} s raw, {wall:.3f} s at reference speed")
    print(f"job_tail_ms is the p{pct:.1f} latency of {len(latencies)} jobs")
    metrics = {
        "setup_s": (import_s + statistics.median(setups), "s"),
        "wall_s": (wall, "s"),
        "job_p50_ms": (1e3 * statistics.median(latencies), "ms"),
        "job_tail_ms": (1e3 * tail, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return len(jobs), failures, {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def traced(builder, name, seed, scale, seconds):
    from tracing import Tracer

    child = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT,
    )
    if child.returncode != 0:
        raise RuntimeError(f"untraced reference run failed:\n{child.stderr}")
    reference_wall = json.loads(child.stdout.splitlines()[-1])["metrics"]["wall_s"]["value"]

    tracer = Tracer()
    with tracer.installed(), Speedometer() as meter:
        jobs = builder(random.Random(f"{name}:{seed}"), scale)
        outcomes, raw, latencies = run_jobs(jobs, meter, tracer)
    wall = sum(latencies)
    failures, facts = verify(jobs, outcomes)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{name}-{seed}.jsonl"
    tracer.write(path)
    print(f"{len(tracer.spans)} spans written to {path.relative_to(ROOT)}; "
          f"traced wall {wall:.3f} s, untraced {reference_wall:.3f} s")
    return len(jobs), failures, tracer.layer_metrics(facts, wall - reference_wall, wall / sum(raw))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"input seed (default {DEFAULT_SEED}; held-out seed {HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=int, default=NOMINAL_SECONDS,
                        help="nominal run length; scales the number of seeded numeric jobs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    if not (SRC / "frobforge" / "__init__.py").is_file():
        print(f"error: no frobforge sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    start = perf_counter()
    import frobforge
    import mpmath
    import numpy

    import workloads
    from frobforge.monodromy import default_dps
    import_s = perf_counter() - start
    import_s *= REFERENCE_CHUNK_S / statistics.median(calibration_chunk() for _ in range(9))
    if Path(frobforge.__file__).resolve().parent != SRC / "frobforge":
        print(f"error: imported frobforge from {frobforge.__file__}", file=sys.stderr)
        return 2

    print(f"python {platform.python_version()}, numpy {numpy.__version__}, "
          f"mpmath {mpmath.__version__}, nproc {os.cpu_count()}, frobforge digits {default_dps()}")
    builder = workloads.WORKLOADS[args.workload]
    scale = args.seconds / NOMINAL_SECONDS
    if args.trace:
        attempted, failures, metrics = traced(builder, args.workload, args.seed, scale, args.seconds)
    else:
        attempted, failures, metrics = untraced(builder, args.workload, args.seed, scale, import_s)
    for line in failures:
        print("FAIL", line)
    print(f"{attempted} jobs, {len(failures)} failed, fail_frac {len(failures) / attempted:.4f}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
