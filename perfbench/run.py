"""Benchmark of the cherenkov-wigner library: one workload per run.

    python3 perfbench/run.py --workload map-long --seed 1 --seconds 10 \
        --trace 0

``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1`` runs
one untraced and one traced pass of the same operations and reports the
per-layer metrics.  ``--workload all`` runs every workload in turn.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; a fuller run report (machine,
versions, sample counts, CSV hashes, failures) goes to
``perfbench/out/report-<workload>-s<seed>-t<trace>.json``.

The library is imported from ``src/`` of the checkout this file sits in,
never from an installed copy; without it the run exits with code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("map-long", "studies")
SETUP_RUNS = 7
# Seconds a bare interpreter takes to import numpy at the reference speed
# (about this machine's fast state); see measure_setup.
LAUNCH_REF_S = 0.17
W2_CYCLES = 2             # workers=2 cycles of a traced run
RECHECK_SEED = 97         # a second seed for re-checking a claimed gain

E2E_METRICS = [
    ("setup_s", "s"), ("nodes_per_s", "nodes/s"), ("point_ms_p50", "ms"),
    ("point_ms_p90", "ms"), ("studies_s", "s"), ("closed_form_s", "s"),
    ("peak_rss_mb", "MB"),
]


def import_library():
    """Put the checkout's src/ first on sys.path and import from it."""
    if not (SRC / "cherenkov_wigner" / "__init__.py").is_file():
        sys.exit(f"perfbench: no library source under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))
    import cherenkov_wigner
    if Path(cherenkov_wigner.__file__).resolve().parent.parent != SRC:
        sys.exit(f"perfbench: imported {cherenkov_wigner.__file__}, "
                 f"not the copy under {SRC}")


def measure_setup(args):
    """Wall times of SETUP_RUNS fresh interpreters importing the library
    and building the workload's inputs, each as (scaled, raw).  Before
    each, a bare interpreter that only imports numpy is launched; the
    set-up time is scaled by LAUNCH_REF_S over that launch's time, which
    follows the machine's speed for launches as workloads.probe does for
    the timings inside a run."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        cmd.append("--tiny")
    times = []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import numpy"], cwd=ROOT,
                       check=True, timeout=120)
        t1 = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, timeout=120,
                       stdout=subprocess.DEVNULL)
        dt = time.perf_counter() - t1
        times.append((dt * LAUNCH_REF_S / (t1 - t0), dt))
    return times


def guarded(step, rec):
    before = rec.attempted
    try:
        step(rec)
    except Exception as exc:  # a step that breaks is a failed operation
        # an operation the step had begun is counted once, as attempted
        rec.attempted = max(rec.attempted, before + 1)
        rec.failures.append(f"{getattr(step, '__name__', step)}: "
                            f"{type(exc).__name__}: {exc}")


def cycle(wl, rec, parallel):
    """Every input of the workload once (see workloads), with the speed
    probe between steps."""
    for step in wl.steps(parallel):
        rec.calibrate()
        guarded(step, rec)
    rec.calibrate()
    rec.end_cycle()


def peak_rss_mb():
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def throughput(rec, kind, raw=False):
    typical = rec.typical(kind, raw)
    keys = [k for k in typical if rec.nodes.get(k)]
    busy = sum(typical[k] for k in keys)
    return sum(rec.nodes[k] for k in keys) / busy if busy else 0.0


def w2_speedup(rec):
    """Median workers=1 time over median workers=2 time, summed over the
    map operations that ran both ways."""
    w1, w2 = rec.typical("primary"), rec.typical("w2")
    keys = [k for k in w2 if k.removesuffix(" w2") in w1]
    busy = sum(w2[k] for k in keys)
    serial = sum(w1[k.removesuffix(" w2")] for k in keys)
    return serial / busy if busy else 0.0


def end_to_end(rec, setup_times, raw=False):
    """(value, timed calls) of every end-to-end metric.  Each input's
    median repetition stands for it (see workloads.Recorder); times are
    scaled to the reference speed unless ``raw``."""
    point_ms = [1e3 * t for t in rec.typical("point", raw).values()]
    p50, p90 = np.percentile(point_ms, [50, 90]) if point_ms else (0.0, 0.0)
    setup = [t[1] if raw else t[0] for t in setup_times]
    return {
        "setup_s": (statistics.median(setup), len(setup)),
        "nodes_per_s": (throughput(rec, "primary", raw),
                        rec.count("primary")),
        "point_ms_p50": (float(p50), rec.count("point")),
        "point_ms_p90": (float(p90), rec.count("point")),
        "studies_s": (sum(rec.typical("primary", raw).values()),
                      rec.count("primary")),
        "closed_form_s": (sum(rec.typical("closed", raw).values()),
                          rec.count("closed")),
        "peak_rss_mb": (peak_rss_mb(), 1),
    }


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def version(dist):
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def src_lines():
    pkg = SRC / "cherenkov_wigner"
    counts = {p.name: len(p.read_text(encoding="utf-8").splitlines())
              for p in sorted(pkg.glob("*.py"))}
    counts["total"] = sum(counts.values())
    return counts


def run_one(args):
    import workloads
    from tracing import LAYER_METRICS, Tracer, medium_import_s

    load_start = os.getloadavg()
    tmp = OUT / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        setup_times = [] if args.trace else measure_setup(args)
        wl = workloads.build(args.workload, ROOT, args.seed, args.tiny)
        wl.prepare(tmp)
        samples, raw, speeds = {}, {}, []
        if args.trace:
            # warm-up, traced and untraced cycles of the same operations
            warm, untraced = workloads.Recorder(), workloads.Recorder()
            tracer = Tracer()
            traced = workloads.Recorder(tracer)
            cycle(wl, warm, parallel=False)
            tracer.install()
            try:
                cycle(wl, traced, parallel=False)
            finally:
                tracer.restore()
            cycle(wl, untraced, parallel=False)
            # operation time at the reference speed; the warm-up cycle is
            # the second untraced sample
            base = min(r.busy_s * r.speeds[0] for r in (warm, untraced))
            overhead = (traced.busy_s * traced.speeds[0] / base - 1.0
                        if base else 0.0)
            # untraced cycles with the workers=2 operations: spans recorded
            # in forked workers would be lost
            parallel = workloads.Recorder()
            for _ in range(W2_CYCLES):
                cycle(wl, parallel, parallel=True)
            metrics = tracer.metrics(overhead, medium_import_s(ROOT),
                                     w2_speedup(parallel))
            tracer.write(OUT / f"spans-{args.workload}-s{args.seed}.json.gz")
            recs = (warm, traced, untraced, parallel)
            attempted = sum(r.attempted for r in recs)
            failures = [f for r in recs for f in r.failures]
            units = dict(LAYER_METRICS)
        else:
            # a warm-up cycle, checked but not timed, that also runs the
            # workers=2 operations for their gates; then timed cycles
            warm, rec = workloads.Recorder(), workloads.Recorder()
            t0 = time.perf_counter()
            cycle(wl, warm, parallel=True)
            cycles = 0
            while True:
                cycle(wl, rec, parallel=False)
                cycles += 1
                elapsed = time.perf_counter() - t0
                # stop at the cycle boundary nearest to the budget
                if elapsed + 0.5 * elapsed / (cycles + 1) >= args.seconds:
                    break
            e2e = end_to_end(rec, setup_times)
            metrics = {m: {"value": e2e[m][0], "unit": u}
                       for m, u in E2E_METRICS}
            samples = {m: e2e[m][1] for m, _ in E2E_METRICS}
            raw = {m: v[0] for m, v in
                   end_to_end(rec, setup_times, raw=True).items()}
            speeds = rec.speeds
            attempted = warm.attempted + rec.attempted
            failures = warm.failures + rec.failures
            units = dict(E2E_METRICS)
        hashes = wl.csv_hashes(tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    report = {
        "workload": args.workload, "seed": args.seed,
        "recheck_seed": RECHECK_SEED, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny,
        "attempted": attempted, "failed": len(failures),
        "failures": failures[:50],
        "metrics": {m: dict(v, samples=samples.get(m), raw=raw.get(m))
                    for m, v in metrics.items()},
        "speed": ({"median": statistics.median(speeds), "min": min(speeds),
                   "max": max(speeds), "cycles": len(speeds)}
                  if speeds else None),
        "machine": {"nproc": os.cpu_count(), "cpu": cpu_model(),
                    "python": platform.python_version(),
                    "numpy": version("numpy"), "scipy": version("scipy"),
                    "loadavg_start": load_start,
                    "loadavg_end": os.getloadavg()},
        "git_commit": git_commit(),
        "src_lines": src_lines(),
        "csv_sha256": hashes,
    }
    OUT.mkdir(exist_ok=True)
    name = f"report-{args.workload}-s{args.seed}-t{args.trace}.json"
    (OUT / name).write_text(json.dumps(report, indent=1) + "\n")

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"failed/attempted = {len(failures)}/{attempted}")
    for line in failures[:10]:
        print(f"  FAILED {line}")
    for m, v in metrics.items():
        n = samples.get(m)
        print(f"  {m:32s} {v['value']:.6g} {units[m]}"
              + (f"  (n={n}, unscaled {raw[m]:.6g})" if m in raw else ""))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))


def run_all(args):
    """Every workload in its own process; the last line sums them."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
               name, "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             timeout=900)
        lines = res.stdout.strip().splitlines()
        if res.returncode != 0 or not lines:
            sys.exit(f"perfbench: {name} exited with {res.returncode}\n"
                     f"{res.stderr}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for m, v in result["metrics"].items():
            total["metrics"][f"{name}.{m}"] = v
    print(json.dumps(total))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest inputs, for the self-test")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    import_library()
    if args.setup_only:
        import workloads
        workloads.build(args.workload, ROOT, args.seed, args.tiny)
    elif args.workload == "all":
        run_all(args)
    else:
        run_one(args)


if __name__ == "__main__":
    main()
