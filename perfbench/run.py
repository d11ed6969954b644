"""Benchmark of the otbayes posterior-barycenter pipeline.

    python3 perfbench/run.py --workload <estimator|harness|descent|stream>
                             --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source tree: otbayes is imported from ``src/``
next to this directory, nothing is installed. The run builds the
workload's inputs from the seed, repeats whole rounds of the workload
until ``--seconds`` have passed, checks every round's outputs, and prints
one JSON line last: ``correct``, ``attempted``, ``failed`` and
``metrics``. ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
runs an untraced warm-up round, then alternates traced and untraced
rounds, and reports the per-layer metrics with the tracing overhead.
Details, spans and per-round figures go to ``perfbench/out/``. See
README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One caller, one thread: BLAS threads only add scheduling noise to the
# 15 x 15 linear algebra on a shared two-core machine. Set before numpy
# is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("estimator", "harness", "descent", "stream")
SETUP_SAMPLES = 3

# Workload-specific sections of a round, reported in the traced run.
SECTIONS = ("estimate_n10_s", "estimate_n1000_s", "ls_barycenter_s", "family_barycenter_s",
            "var_grad_s", "univariate_stream_s")


def setup(workload, seed):
    """Import otbayes from this tree and build the inputs; returns (workload, seconds)."""
    t0 = time.perf_counter()
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import otbayes

    if not Path(otbayes.__file__).resolve().is_relative_to(src):
        raise ImportError(f"otbayes imported from {otbayes.__file__}, not from {src}")
    import workloads

    wl = workloads.WORKLOADS[workload](seed)
    return wl, time.perf_counter() - t0


def setup_probe(workload, seed):
    """Set-up time of a fresh process, as that process measured it."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=170, check=True, cwd=ROOT)
    return float(proc.stdout.split()[-1])


def run_rounds(wl, seconds, tracer=None):
    """Whole rounds until ``seconds`` have passed, at least one.

    With a tracer, round 0 is an untraced warm-up (first calls pay for
    lazy imports and allocations), then traced and untraced rounds
    alternate, at least one of each, so that a drift in the machine's
    speed falls on both alike.
    """
    import workloads

    rounds = []
    start = time.perf_counter()
    while len(rounds) < (3 if tracer else 1) or time.perf_counter() - start < seconds:
        rnd = workloads.Round()
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            tracer.install()
        try:
            out = wl.run(rnd)
        finally:
            if traced:
                tracer.uninstall()
        wl.check(rnd, out)
        rounds.append(rnd)
    return rounds


def mean_of(rounds, key):
    # The mean over rounds uses all of the measured time; the machine's
    # speed drifts over tens of seconds, so it is steadier than a median
    # of the few rounds a run holds.
    return statistics.fmean(key(r) for r in rounds)


def section_metrics(rounds):
    """Workload-specific section timings (mean over rounds)."""
    out = {name: (mean_of(rounds, lambda r: r.sections.get(name, 0.0)), "s") for name in SECTIONS}
    steps = sum(r.counts.get("sgd_steps", 0) for r in rounds)
    busy = sum(r.sections.get("sgd_s", 0.0) for r in rounds)
    out["sgd_steps_per_s"] = (steps / busy if busy else 0.0, "1/s")
    return out


def round_record(r):
    return {"wall_s": r.wall_s, "sections": r.sections, "counts": r.counts,
            "attempted": r.attempted, "failed": r.failed, "errors": r.errors,
            "problems": r.problems}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    try:
        wl, setup_s = setup(args.workload, args.seed)
    except ImportError as exc:
        print(f"cannot import otbayes from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if args.setup_only:
        print(repr(setup_s))
        return 0
    setup_samples = [setup_s]

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        rounds = run_rounds(wl, args.seconds, tracer)
        plain, traced = rounds[2::2], rounds[1::2]
        plain_wall = mean_of(plain, lambda r: r.wall_s)
        traced_wall = mean_of(traced, lambda r: r.wall_s)
        metrics = tracer.metrics(len(traced))
        metrics.update(section_metrics(plain))
        metrics["trace.untraced_wall_s"] = (plain_wall, "s")
        metrics["trace.traced_wall_s"] = (traced_wall, "s")
        metrics["trace.overhead_s"] = (traced_wall - plain_wall, "s")
        spans = metrics["trace.spans"][0]
        metrics["trace.overhead_est_s"] = (spans * tracing.Tracer.span_cost(), "s")
    else:
        rounds = run_rounds(wl, args.seconds)
        setup_samples += [setup_probe(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)]
        metrics = {
            "setup_s": (statistics.median(setup_samples), "s"),
            "wall_s": (mean_of(rounds, lambda r: r.wall_s), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }

    problems = [p for r in rounds for p in r.problems]
    result = {
        "correct": not problems,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }

    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  setup_samples_s=setup_samples, rounds=[round_record(r) for r in rounds])
    if tracer is not None:
        detail["traced_rounds"] = len(traced)
        tracer.write_spans(f"{stem}.spans.csv.gz")
    stem.with_suffix(".json").write_text(json.dumps(detail, indent=1))

    for p in problems[:20]:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    for e in [e for r in rounds for e in r.errors][:20]:
        print(f"OPERATION FAILED: {e}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
