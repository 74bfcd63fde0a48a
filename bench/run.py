"""Benchmark of the skipnorm library: one workload per process.

Usage, from the root of a checkout::

    python3 bench/run.py --workload {train,probe,gradcheck} --seed N --seconds S --trace {0,1}

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` is a separate run of the same workload: it records a span
for every call of the library functions in ``tracer.TARGETS``, reports
the per-layer metrics and the tracing overhead, and writes the spans to
``.bench_out/``. Either way the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it are a readable report and the
environment block. A check failure that a documented library defect
explains exactly is printed as ``KNOWN`` and is not counted in
``failed``. See ``bench/README.md`` for the metric definitions.
"""

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_SAMPLES = 9
MIN_PASSES = 2

# end-to-end metrics of the final JSON line: one name for all workloads,
# each workload says what its two rates count (its main_metric/aux_metric)
END_TO_END = (
    ("setup_s", "s"),
    ("main_per_s", "item/s"),
    ("aux_per_s", "item/s"),
    ("peak_rss_mb", "MB"),
)

NODE_OPS = ("matmul", "add", "scale", "ewmul", "relu", "softmax_cross_entropy")
PER_LAYER = (
    [("tensor.nodes_per_step", "count", "lower")]
    + [(f"tensor.{op}.{f}", u, "lower") for op in NODE_OPS + ("backward",) for f, u in (("calls", "count"), ("ms", "ms"))]
    + [(f"normalization.{n}.{f}", u, "lower") for n in ("layer_norm", "batch_norm") for f, u in (("calls", "count"), ("ms", "ms"))]
    + [
        ("blocks.block_forward.calls", "count", "lower"),
        ("blocks.block_forward.self_ms", "ms", "lower"),
        ("blocks.model_forward.self_ms", "ms", "lower"),
        ("blocks.build_model.ms", "ms", "lower"),
        ("blocks.save_model.ms", "ms", "lower"),
        ("blocks.load_model.ms", "ms", "lower"),
        ("blocks.checkpoint_bytes", "B", "lower"),
        ("training.sgd_step.calls", "count", "lower"),
        ("training.sgd_step.ms", "ms", "lower"),
        ("training.evaluate_loss.calls", "count", "lower"),
        ("training.evaluate_loss.ms", "ms", "lower"),
        ("training.evaluate_error.calls", "count", "lower"),
        ("training.evaluate_error.ms", "ms", "lower"),
        ("training.train.self_ms", "ms", "lower"),
        ("training.diverged_runs", "count", "lower"),
        ("ratio.unroll_decompose.calls", "count", "lower"),
        ("ratio.unroll_decompose.ms", "ms", "lower"),
        ("ratio.ratio_general.calls", "count", "lower"),
        ("ratio.ratio_general.ms", "ms", "lower"),
        ("diagnostics.gradcheck.calls", "count", "lower"),
        ("diagnostics.gradcheck.self_ms", "ms", "lower"),
        ("diagnostics.gradcheck.evals", "count", "lower"),
        ("diagnostics.gradcheck.failed", "count", "lower"),
        ("diagnostics.gradient_norm_sweep.self_ms", "ms", "lower"),
        ("diagnostics.effective_scale_sweep.self_ms", "ms", "lower"),
        ("data.gen_synthetic.ms", "ms", "lower"),
    ]
)
# set-up functions: reported per call over the whole run, set-up included;
# every other per-layer value is per pass, the median over traced passes
PER_CALL = ("blocks.build_model.ms", "data.gen_synthetic.ms")


def usable_cpus():
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def cap_blas_threads():
    """Keep BLAS threads at or below the usable CPU count; must run
    before numpy is imported. Unset means one thread: the workload is
    one single-threaded process, and spare cores absorb the host's other
    work instead of stalling a BLAS thread."""
    nproc = usable_cpus()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        value = os.environ.get(var, "")
        if value.isdigit() and int(value) > nproc:
            os.environ[var] = str(nproc)
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")


def measure_setup(workload, seed):
    """Seconds from process start to set-up done, for fresh processes."""
    times = []
    for _ in range(SETUP_SAMPLES):
        t = perf_counter()
        with subprocess.Popen(
            [sys.executable, str(BENCH / "setup_probe.py"), workload, str(seed), str(OUT)],
            stdout=subprocess.PIPE, text=True,
        ) as proc:
            line = proc.stdout.readline()
            elapsed = perf_counter() - t
            if proc.wait(timeout=120) != 0 or line.strip() != "ready":
                raise RuntimeError(f"set-up probe for {workload} failed")
        times.append(elapsed)
    return times


def run_passes(workload, checks, seconds, min_passes, tracer=None):
    """Repeat passes until ``seconds`` have gone and ``min_passes`` are
    done; a tracer labels the spans of pass k with run id k."""
    results = []
    deadline = perf_counter() + seconds
    while len(results) < min_passes or perf_counter() < deadline:
        if tracer is not None:
            tracer.run_id = len(results) + 1
        results.append(workload.run_pass(checks))
    return results


def pass_rates(results, which):
    """items/seconds of one throughput metric, one value per pass."""
    return [getattr(r, which)[0] / getattr(r, which)[1] for r in results]


def fastest_slowest_rate(results, which):
    """Geometric mean of the fastest and the slowest pass's throughput.

    On a shared host a pass runs either at a contended speed or at an
    uncontended one up to twice as fast, and the share of each changes
    from minute to minute, so a median or a percentile of passes jumps
    between the two. The slowest pass follows the contended speed but
    catches single stalls; the fastest pass follows the uncontended
    speed but drops when a whole run is contended. The two disturbances
    come independently, and the geometric mean halves each."""
    rates = pass_rates(results, which)
    return (min(rates) * max(rates)) ** 0.5


def check_repeats(checks, name, per_pass):
    """Exact counts must be identical on every pass."""
    checks.check(f"exact counts repeat: {name}", all(p == per_pass[0] for p in per_pass))


def per_layer_metrics(tracer, results, checks):
    import numpy as np

    table, per_call, nodes = tracer.summary()
    per_pass = []
    for run, result in enumerate(results, start=1):
        values = {}
        for name, _, _ in PER_LAYER:
            span, _, field = name.rpartition(".")
            calls, ms, self_ms = table.get((run, span), (0, 0.0, 0.0))
            values[name] = {"calls": calls, "ms": ms, "self_ms": self_ms}.get(field, 0)
        sgd_calls = table.get((run, "training.sgd_step"), (0,))[0]
        values["tensor.nodes_per_step"] = nodes[run] / sgd_calls if sgd_calls else 0.0
        for key in ("diagnostics.gradcheck.evals", "diagnostics.gradcheck.failed"):
            values[key] = tracer.counters.get((run, key), 0)
        values.update(result.counts)
        per_pass.append(values)

    metrics = {}
    for name, unit, _ in PER_LAYER:
        if name in PER_CALL:
            samples = per_call[name.rpartition(".")[0]]
            metrics[name] = float(np.median(samples)) if len(samples) else 0.0
        elif unit == "ms":
            metrics[name] = median(v[name] for v in per_pass)
        else:
            column = [v[name] for v in per_pass]
            check_repeats(checks, name, column)
            metrics[name] = column[0]
    return {name: {"value": metrics[name], "unit": unit} for name, unit, _ in PER_LAYER}


def environment(seed, workload, digest):
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "nproc": usable_cpus(),
        "seed": seed,
        workload.digest_key: digest,
    }


def pass_counts(result):
    """Exact counts of one pass; every pass of a run must give the same."""
    return {"main_items": result.main[0], "aux_items": result.aux[0], **result.counts}


def run(name, seed, seconds, trace):
    """Run one workload. Returns a dict: the report ``lines``, the final
    ``result`` object, the ``environment`` block, the pass ``counts`` and
    the ``checks`` made."""
    # numpy, and with it BLAS, loads here, after cap_blas_threads
    import workloads
    from tracer import Tracer, installed_wrappers

    OUT.mkdir(exist_ok=True)
    cls = workloads.WORKLOADS[name]
    checks = workloads.Checks()
    lines = [f"workload {name}  seed {seed}  seconds {seconds}  trace {trace}"]

    if trace:
        tracer = Tracer()
        with tracer:
            workload = cls(seed, str(OUT))  # spans of run id 0 are set-up
            traced = run_passes(workload, checks, seconds / 2, MIN_PASSES, tracer)
        untraced = run_passes(workload, checks, seconds / 2, 1)
        checks.check("tracer: every wrapper removed", not installed_wrappers())
        metrics = per_layer_metrics(tracer, traced, checks)
        tracer.write(OUT / f"spans-{name}-seed{seed}.npz")
        lines.append(f"passes: {len(traced)} traced, then {len(untraced)} untraced; "
                     f"{len(tracer.start)} spans written to .bench_out/")
        for which, (label, unit) in (("main", cls.main_metric), ("aux", cls.aux_metric)):
            on, off = median(pass_rates(traced, which)), median(pass_rates(untraced, which))
            lines.append(f"tracing overhead {label}: {off:.6g} {unit} untraced, {on:.6g} traced "
                         f"(traced takes {off / on:.3f}x the time)")
        lines += [f"  {k:45s} {v['value']:>14.6g} {v['unit']}" for k, v in metrics.items()]
        results = traced + untraced
    else:
        setup = measure_setup(name, seed)
        workload = cls(seed, str(OUT))
        warm_up = run_passes(workload, checks, 0, 1)  # caches and lazy set-up
        timed = run_passes(workload, checks, seconds, MIN_PASSES)
        values = {
            "setup_s": median(setup),
            "main_per_s": fastest_slowest_rate(timed, "main"),
            "aux_per_s": fastest_slowest_rate(timed, "aux"),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END}
        lines.append(f"passes: {len(timed)} timed, after 1 warm-up")
        for which, (label, unit) in (("main", cls.main_metric), ("aux", cls.aux_metric)):
            rates = pass_rates(timed, which)
            lines.append(f"  {label:40s} {values[which + '_per_s']:>12.6g} {unit}   [{which}_per_s: geometric "
                         f"mean of fastest {max(rates):.6g} and slowest {min(rates):.6g}; median {median(rates):.6g}]")
            lines.append("    per pass: " + " ".join(f"{r:.5g}" for r in rates))
        lines.append(f"  {'setup_s':40s} {values['setup_s']:>12.6g} s   "
                     f"[median of {SETUP_SAMPLES} fresh processes]")
        lines.append(f"  {'peak_rss_mb':40s} {values['peak_rss_mb']:>12.6g} MB")
        results = warm_up + timed

    counts = [pass_counts(r) for r in results]
    check_repeats(checks, "items and counts per pass", counts)
    checks.check("outputs repeat on every pass", len({r.digest for r in results}) == 1)
    known = sum(checks.known.values())
    share = (checks.failures + known) / checks.attempted
    lines.append(f"  {'fail_share':40s} {share:>12.6g} ratio   [{checks.failures + known} of "
                 f"{checks.attempted} checks failed, {known} of them by a known defect]")
    lines += [f"    FAILED x{n}: {check}" for check, n in sorted(checks.failed.items())]
    lines += [f"    KNOWN x{n}: {check}" for check, n in sorted(checks.known.items())]
    lines += [f"    NOTE x{n}: {note}" for note, n in sorted(checks.notes.items())]
    env = environment(seed, cls, results[0].digest)
    lines.append("environment: " + json.dumps(env))
    result = {
        "correct": checks.failures == 0,
        "attempted": checks.attempted,
        "failed": checks.failures,
        "metrics": metrics,
    }
    return {"lines": lines, "result": result, "environment": env, "counts": counts[0], "checks": checks}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("train", "probe", "gradcheck"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "skipnorm" / "__init__.py").is_file():
        print(f"error: no skipnorm source tree at {SRC}", file=sys.stderr)
        return 2
    cap_blas_threads()
    sys.path.insert(0, str(SRC))
    report = run(args.workload, args.seed, args.seconds, args.trace)
    print("\n".join(report["lines"]))
    print(json.dumps(report["result"]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
