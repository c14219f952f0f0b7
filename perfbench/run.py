"""Run one homdual benchmark workload and print its metrics.

    python3 perfbench/run.py --workload centered-sweep --seed 1 --seconds 22 --trace 0

Run from anywhere under plain ``python3`` (not ``-O``: several library
certificates are asserts). The library is imported from ``src/`` next to
this directory. One pass of the workload runs after another on one thread
until ``--seconds`` is used up. Every time is scaled to the host's speed,
sampled throughout the run (see ``pace.py``). With ``--trace 0`` the last
line of stdout is a JSON object holding the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a traced run. The exit code
is 1 if any check failed.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import get_clock_info, perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PROBES = 3
# A new pass starts only if the passes so far predict it ends within this
# share of --seconds, so a run never overshoots its window by much.
WINDOW_SLACK = 1.1
TAIL_BEYOND = 10  # item_tail_ms: the slowest item with this many slower ones


def import_library():
    sys.path.insert(0, str(SRC))
    try:
        import homdual
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import homdual from {SRC}: {exc}")
    if SRC.resolve() not in Path(homdual.__file__).resolve().parents:
        sys.exit(f"perfbench: homdual was imported from {homdual.__file__}, not from {SRC}")


def probe_setup(args) -> tuple[float, float]:
    """Seconds from starting a fresh process until its inputs are ready,
    as measured and at reference speed.

    The fresh process samples the host's speed while it sets up (see
    ``set_up``) and reports it with the time its sampling took.
    """
    from pace import REF_S

    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    t0 = perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
        rest = proc.stdout.read().split()
        code = proc.wait(timeout=120)
    if line.strip() != "ready" or code != 0 or len(rest) != 2:
        sys.exit(f"perfbench: set-up probe failed (exit {code})")
    ref, paused = map(float, rest)
    return elapsed, (elapsed - paused) * REF_S / ref


def set_up(args) -> int:
    """The set-up probe's side: import the library and build the inputs,
    sampling the host's speed meanwhile, then print "ready" and, on the
    next line, the mean reference time and the seconds sampling took."""
    from pace import Pace, reference_median

    pace = Pace()
    pace.start()
    try:
        import_library()
        from workloads import WORKLOADS

        WORKLOADS[args.workload](args.seed)
    finally:
        pace.stop()
    print("ready", flush=True)
    ref = pace.speed(0.0, pace.now()) if pace.refs else reference_median(5)
    print(ref, pace.paused, flush=True)
    return 0


def measure(workload, budget: float, cache, pace, tracer=None, min_passes: int = 1) -> list:
    """Run passes back to back until the next would overrun ``budget``."""
    from workloads import Record

    records = []
    start = perf_counter()
    while True:
        cache.cache_clear()  # every CLI invocation starts with a cold memo
        gc.collect()
        rec = Record(pace.now)
        if tracer is not None:
            tracer.start_pass()
        t = perf_counter()
        workload.run(rec)
        rec.wall_s = perf_counter() - t
        rec.cache = cache.cache_info()
        rec.counts = dict(tracer.counts) if tracer is not None else None
        records.append(rec)
        typical = statistics.median(r.wall_s for r in records)
        if len(records) >= min_passes and \
                perf_counter() - start + typical > budget * WINDOW_SLACK:
            return records


def block_times(records, field: str, pace=None) -> dict:
    """Each timed block's median time over the passes of a run, scaled to
    reference speed by ``pace`` (as measured without it).

    A block's spans add up within a pass.
    """
    per_block: dict = {}
    for rec in records:
        for key, spans in getattr(rec, field).items():
            seconds = sum(pace.scaled(a, b) if pace else b - a for a, b in spans)
            per_block.setdefault(key, []).append(seconds)
    return {key: statistics.median(times) for key, times in per_block.items()}


def pass_time(rec, pace) -> float:
    """One pass's timed blocks, at reference speed."""
    return sum(pace.scaled(a, b) for table in (rec.items, rec.stages)
               for spans in table.values() for a, b in spans)


def end_to_end(records, setup: list, pace) -> tuple[dict, dict]:
    items = sorted(block_times(records, "items", pace).values())
    if not items:
        sys.exit("perfbench: no item completed: " + "; ".join(records[0].failures[:3]))
    stages = block_times(records, "stages", pace)
    beyond = TAIL_BEYOND if len(items) > TAIL_BEYOND else 0  # too few items: the slowest
    metrics = {
        "setup_s": (statistics.median(scaled for _, scaled in setup), "s"),
        "run_s": (sum(items) + sum(stages.values()), "s"),
        "item_p50_ms": (statistics.median(items) * 1e3, "ms"),
        "item_tail_ms": (items[-beyond - 1] * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    raw = sum(block_times(records, "items").values()) + \
        sum(block_times(records, "stages").values())
    notes = {"passes": len(records), "items_per_pass": len(items),
             "tail_percentile": round(100.0 * (len(items) - beyond) / len(items), 3),
             "measured_setup_s": statistics.median(measured for measured, _ in setup),
             "measured_run_s": raw,
             "pass_s": [round(pass_time(r, pace), 4) for r in records],
             "measured_pass_s": [round(r.lib_s, 4) for r in records]}
    if records[0].detail:
        pooled = {}
        for rec in records:
            for key, spans in rec.detail.items():
                pooled.setdefault(key, []).extend(1e3 * pace.scaled(a, b) for a, b in spans)
        notes["detail"] = {key: statistics.median(ms) for key, ms in pooled.items()}
    return metrics, notes


def per_layer(plain, traced, tracer, pace) -> tuple[dict, list]:
    from spans import FUNCTIONS, TRACED

    first = traced[0]
    counts = first.counts
    per_pass = tracer.self_times()
    metrics: dict[str, tuple] = {}
    table = []
    module_pct = dict.fromkeys(TRACED, 0.0)
    for name in FUNCTIONS:
        shares = [100.0 * per_pass[i].get(name, [[], 0.0])[1] / r.lib_s
                  for i, r in enumerate(traced)]
        pct = statistics.median(shares)
        module_pct[name.split(".")[0]] += pct
        metrics[name + ".calls"] = (counts[name + ".calls"], "count")
        metrics[name + ".self_pct"] = (pct, "%")
        durations, self_s = per_pass[0].get(name, [[], 0.0])
        if durations:
            d = sorted(durations)
            table.append({"function": name, "calls": len(d), "self_s": self_s,
                          "total_s": sum(d), "p50_ms": 1e3 * d[len(d) // 2],
                          "p99_ms": 1e3 * d[min(len(d) - 1, (99 * len(d)) // 100)]})
    for mod, pct in module_pct.items():
        metrics[mod + ".self_pct"] = (pct, "%")
    for key, value in counts.items():
        if not key.endswith(".calls") and key != "homs.is_isomorphic.true":
            metrics[key] = (value, "bytes" if key.endswith("bytes") else "count")
    iso = counts["homs.is_isomorphic.calls"]
    metrics["homs.is_isomorphic.true_ratio"] = (
        counts["homs.is_isomorphic.true"] / iso if iso else 0.0, "ratio")
    metrics["sparsity.tree_depth_value.hits"] = (first.cache.hits, "count")
    metrics["sparsity.tree_depth_value.misses"] = (first.cache.misses, "count")
    overhead = statistics.median(pass_time(r, pace) for r in traced) - \
        statistics.median(pass_time(r, pace) for r in plain)
    metrics["trace.overhead_s"] = (overhead, "s")
    return metrics, table


def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def stamp(args, workload) -> dict:
    try:  # read from metadata: importing numpy here would add to peak_rss_mb
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    h = hashlib.sha256()
    for path in sorted((SRC / "homdual").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha(), "src_sha256": h.hexdigest()[:16],
        "inputs_sha256": workload.inputs_digest(), "python": platform.python_version(),
        "numpy": numpy_version, "nproc": os.cpu_count(), "clock": "perf_counter",
        "clock_resolution_s": get_clock_info("perf_counter").resolution,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=22.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if sys.flags.optimize:
        sys.exit("perfbench: run under plain python, not -O: library certificates are asserts")
    if args.setup_only:
        return set_up(args)
    import_library()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if args.seconds <= 0:
        sys.exit("perfbench: --seconds must be positive")
    from pace import REF_S, Pace

    from homdual import sparsity

    cache = sparsity.tree_depth_value  # captured before any wrapper replaces it
    setup = [] if args.trace else [probe_setup(args) for _ in range(SETUP_PROBES)]
    workload = WORKLOADS[args.workload](args.seed)
    info = stamp(args, workload)
    pace = Pace()
    pace.start()
    try:
        if args.trace:
            from spans import Tracer

            t = perf_counter()
            plain = measure(workload, args.seconds / 2, cache, pace)
            tracer = Tracer(pace.now)
            tracer.install()
            try:
                traced = measure(workload, args.seconds - (perf_counter() - t), cache, pace,
                                 tracer)
            finally:
                tracer.uninstall()
        else:
            records = measure(workload, args.seconds, cache, pace, min_passes=2)
    finally:
        pace.stop()
    info.update(ref_s=REF_S, speed_samples=len(pace.refs),
                median_speed=REF_S / statistics.median(pace.refs))
    if args.trace:
        records = plain + traced
        metrics, table = per_layer(plain, traced, tracer, pace)
        info.update(passes=len(plain), traced_passes=len(traced), spans=len(tracer.spans))
        print(json.dumps({"stamp": info}))
        print(json.dumps({"functions": table}))
    else:
        metrics, notes = end_to_end(records, setup, pace)
        info.update(notes)
        print(json.dumps({"stamp": info}))
    attempted = sum(r.attempted for r in records)
    failures = [f for r in records for f in r.failures]
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"error_ratio = {len(failures) / max(attempted, 1):.6g} "
          f"({len(failures)} of {attempted} checks failed)")
    for f in failures[:10]:
        print("FAILED:", f, file=sys.stderr)
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
