"""Benchmark runner: one workload, one seed, one run.

    python3 perfbench/run.py --workload certify-corpus --seed 1 --seconds 10 --trace 0

Builds the workload's inputs from --seed (set-up), warms up, then runs whole
rounds of ops in a closed loop (one client, next op after the last one ends)
until --seconds have passed.  Every op's output is checked, untimed.  Prints
each metric by name with its unit, then, as the last line, one JSON object
{"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics.  --trace 1 runs half the time
untraced and half with every layer wrapped by perfbench/tracer.py, and reports
per-layer calls and self time per op plus the tracing overhead (traced minus
untraced).  --record FILE appends the full result, with environment and
sample counts, as one JSON line for perfbench/compare.py.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic, perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 3  # fresh-interpreter set-ups per run; setup_s is their median
IMPORT_PROBES = 5
# Times are reported at a nominal machine speed.  Between ops, at most every
# REF_EVERY_S, the runner times reference_s(); a run's slowdown is the median
# of those times over REF_MS.  Latencies and set-up times are divided by it
# and ops_per_s multiplied by it.  On a shared machine whose speed drifts by
# tens of percent over minutes this removes much of the run-to-run spread.
# The raw figures are printed and recorded beside the scaled ones.
REF_MS = 1.0
REF_EVERY_S = 0.1


def reference_s() -> float:
    """Seconds a fixed integer loop takes: the machine's speed right now.

    It allocates nothing that outlives an iteration, so the library's heap
    does not change its speed.
    """
    start = perf_counter()
    x = acc = 0
    for _ in range(5000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        acc += x % 7
    return perf_counter() - start


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


class Phase:
    """Latencies and failures of one timed phase."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.failures: list[str] = []
        self.refs: list[float] = []
        self.peak_rss_mb = 0.0

    def slowdown(self) -> float:
        return statistics.median(self.refs) * 1e3 / REF_MS

    def summary(self) -> dict:
        """Latency metrics at nominal speed, the raw ones under "raw"."""
        lat = self.latencies
        p90 = statistics.quantiles(lat, n=10)[8]
        raw = {
            "ops_per_s": len(lat) / sum(lat),
            "op_p50_ms": statistics.median(lat) * 1e3,
            "op_p90_ms": p90 * 1e3,
        }
        k = self.slowdown()
        return {
            "ops_per_s": raw["ops_per_s"] * k,
            "op_p50_ms": raw["op_p50_ms"] / k,
            "op_p90_ms": raw["op_p90_ms"] / k,
            "raw": raw,
            "slowdown": k,
            "samples": len(lat),
            "beyond_p90": sum(1 for x in lat if x > p90),
        }


def measure(wl, seconds: float, tracer=None) -> Phase:
    """Whole rounds of ops until `seconds` have passed.

    ops_per_s is ops over summed op latency: the benchmark's own input
    preparation and output checks between ops are not part of the loop's
    service time.  peak_rss_mb is read after the first round, so it measures
    the same work whatever the throughput.
    """
    phase = Phase()
    phase.refs.append(reference_s())
    last_ref = perf_counter()
    start = monotonic()
    op_id = 0
    while True:
        for run, check in wl.round():
            t0 = perf_counter()
            try:
                out = tracer.run_op(op_id, run) if tracer else run()
                error = None
            except Exception as exc:  # an op that raises is a failed op
                error = f"{type(exc).__name__}: {exc}"
            phase.latencies.append(perf_counter() - t0)
            if error is None:
                try:
                    error = check(out)
                except Exception as exc:  # so is output the check cannot read
                    error = f"unreadable output: {type(exc).__name__}: {exc}"
            if error:
                phase.failures.append(error)
            if tracer:
                for spans in wl.take_child_spans():
                    tracer.absorb(spans, op_id)
            op_id += 1
            if perf_counter() - last_ref >= REF_EVERY_S:
                phase.refs.append(reference_s())
                last_ref = perf_counter()
        if not phase.peak_rss_mb:
            phase.peak_rss_mb = wl.peak_rss_mb()
        if monotonic() - start >= seconds:
            return phase


def setup_seconds(args) -> list[float]:
    """Set-up times of fresh interpreters: spawn to the first op being ready."""
    out = []
    for _ in range(SETUP_PROBES):
        start = monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe"],
            capture_output=True, text=True, check=True, cwd=ROOT,
        )
        out.append(float(proc.stdout.split()[-1]) - start)
    return out


def import_ms() -> float:
    """Fresh-interpreter import of toric_surface_lab.cli minus a bare start."""
    from workloads import child_env

    env = child_env()
    diffs = []
    for _ in range(IMPORT_PROBES):
        times = []
        for code in ("pass", "import toric_surface_lab.cli"):
            t0 = perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, check=True)
            times.append(perf_counter() - t0)
        diffs.append(times[1] - times[0])
    return statistics.median(diffs) * 1e3


def layer_metrics(wl, tracer, phase: Phase, cache_before, untraced: Phase) -> dict:
    from tracer import NAMES, self_times

    ops = len(phase.latencies)
    out = {"cli.import_ms": (import_ms(), "ms")}
    for name, (calls, self_s) in self_times(tracer.spans).items():
        if name == NAMES[0]:
            continue
        out[f"{name}.calls_per_op"] = (calls / ops, "count")
        out[f"{name}.self_ms_per_op"] = (self_s * 1e3 / ops, "ms")
    cache_after = tracer.cache_counts()
    for key, (hits, misses) in cache_after.items():
        hits -= cache_before[key][0]
        misses -= cache_before[key][1]
        child = wl.child_cache.get(key, (0, 0))
        hits, misses = hits + child[0], misses + child[1]
        out[f"{key}.hit_ratio"] = (hits / (hits + misses) if hits + misses else 0.0, "ratio")
    out["derived.ext_pairs_per_op"] = (wl.ext_pairs / ops, "count")
    out["corpus.standard_corpus.setup_ms"] = (wl.corpus_ms, "ms")
    out["process.peak_rss_mb"] = (untraced.peak_rss_mb, "MB")
    traced, plain = phase.summary(), untraced.summary()
    for key, unit in (("ops_per_s", "1/s"), ("op_p50_ms", "ms"), ("op_p90_ms", "ms")):
        out[f"trace.overhead.{key}"] = (traced[key] - plain[key], unit)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="append the full result to this JSON-lines file")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "toric_surface_lab" / "__init__.py").is_file():
        print(f"error: no library sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy
    import toric_surface_lab
    from workloads import WORKLOADS

    if Path(toric_surface_lab.__file__).resolve().parent.parent != SRC:
        print(f"error: imported {toric_surface_lab.__file__}, not the checkout's", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload}; choose from {sorted(WORKLOADS)}")

    workdir = ROOT / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        wl.warm_up()
        if args.setup_probe:
            print(monotonic())
            return 0
        if args.trace:
            from tracer import Tracer

            untraced = measure(wl, args.seconds / 2)
            tracer = Tracer()
            tracer.install()
            cache_before = tracer.cache_counts()
            wl.ext_pairs = 0
            wl.traced = True
            phase = measure(wl, args.seconds / 2, tracer)
            tracer.uninstall()
            wl.traced = False
            metrics = layer_metrics(wl, tracer, phase, cache_before, untraced)
            tracer.dump(ROOT / ".perfbench_tmp" / f"spans-{args.workload}.csv")
            phases = [untraced, phase]
        else:
            phase = measure(wl, args.seconds)
            setups = setup_seconds(args)
            s = phase.summary()
            metrics = {
                "ops_per_s": (s["ops_per_s"], "1/s"),
                "op_p50_ms": (s["op_p50_ms"], "ms"),
                "op_p90_ms": (s["op_p90_ms"], "ms"),
                "setup_s": (statistics.median(setups) / s["slowdown"], "s"),
            }
            phases = [phase]
        failures = [f for p in phases for f in p.failures] + wl.final_checks()
        defects = wl.known_defects()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(p.latencies) for p in phases)
    summary = phase.summary()
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "attempted": attempted, "failed": len(failures),
        "failed_frac": len(failures) / attempted,
        "samples": summary["samples"], "beyond_p90": summary["beyond_p90"],
        "peak_rss_mb": phases[0].peak_rss_mb,
        "slowdown": summary["slowdown"], "raw": summary["raw"],
        "env": {
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "commit": git_commit(),
        },
        "known_defects": defects,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    if not args.trace:
        record["setup_samples"] = setups
        record["raw"]["setup_s"] = statistics.median(setups)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"ops {summary['samples']} ({summary['beyond_p90']} beyond p90)")
    for key, (value, unit) in metrics.items():
        print(f"  {key:<48} {value:>14.6g} {unit}")
    print(f"  {'peak_rss_mb':<48} {record['peak_rss_mb']:>14.6g} MB")
    print(f"  {'failed_frac':<48} {record['failed_frac']:>14.6g} "
          f"({len(failures)}/{attempted})")
    for failure in failures[:5]:
        print(f"  failed: {failure}")
    for defect in defects:
        print(f"  known defect, not counted: {defect}")
    print(f"  times above are at nominal speed; this run was "
          f"{summary['slowdown']:.3f}x slower, raw: "
          + " ".join(f"{k}={v:.6g}" for k, v in record["raw"].items()))
    print("  env " + " ".join(f"{k}={v}" for k, v in record["env"].items()))
    if args.record:
        with open(args.record, "a") as handle:
            handle.write(json.dumps(record) + "\n")
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": len(failures),
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
