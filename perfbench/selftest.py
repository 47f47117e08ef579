"""Self-test of the benchmark itself:

    python3 perfbench/selftest.py

1. A tiny run of every workload, untraced and traced, emits exactly the
   metrics BENCHMARK.json names, with their units, and no failure.
2. The gates count a degraded library as failed operations, each once: a
   map with max_panels=1 at t_out=5e7, a map perturbed by 1e-6 of its
   scale, a workers=2 map that differs from workers=1, a map study whose
   nodes do not converge (max_panels=1), a study exiting with 1, and an
   operation that raises after it was timed.  The points' tolerance scale
   (workloads.envelope_bound) matches the library's own on one scenario.
3. In a directory holding only BENCHMARK.json and perfbench/, a run exits
   with a non-zero code and prints no result.

Everything it writes stays under perfbench/out/.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def run_bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=600)


def check_metrics(spec):
    problems = []
    for workload in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            res = run_bench(ROOT, "--workload", workload["name"], "--seed",
                            "1", "--seconds", "1", "--trace", str(trace),
                            "--tiny")
            tag = f"{workload['name']} trace={trace}"
            if res.returncode != 0:
                problems.append(f"{tag}: exit {res.returncode}\n{res.stderr}")
                continue
            result = json.loads(res.stdout.strip().splitlines()[-1])
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {m: v["unit"] for m, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{tag}: metrics {sorted(set(got) ^ set(want))}"
                                f" or units differ from BENCHMARK.json")
            if not result["correct"] or result["failed"]:
                problems.append(f"{tag}: {result['failed']} failed")
    return problems


def check_gates():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import workloads
    from cherenkov_wigner import cli, wignerfield

    tmp = OUT / "selftest-gates"
    tmp.mkdir(parents=True, exist_ok=True)
    wl = workloads.build("map-long", ROOT, 1, tiny=True)
    wl.prepare(tmp)
    good = workloads.Recorder()
    wl.map_op(0, 1, good)
    assert not good.failures, good.failures

    evaluate_map = wignerfield.evaluate_map

    def one_panel(*args, **kwargs):
        return evaluate_map(*args, **dict(kwargs, max_panels=1))

    def perturbed(*args, **kwargs):
        wmap = evaluate_map(*args, **kwargs)
        wmap.values = wmap.values + 1e-6
        return wmap

    def perturbed_w2(*args, **kwargs):
        return (perturbed if kwargs.get("workers", 1) > 1
                else evaluate_map)(*args, **kwargs)

    problems = []
    cases = [("max_panels=1 map", one_panel, (0, 1)),
             ("map perturbed by 1e-6 of scale", perturbed, (0, 1)),
             ("workers=2 map unlike workers=1", perturbed_w2, (0, 2))]
    for name, fake, (i, workers) in cases:
        rec = workloads.Recorder()
        wignerfield.evaluate_map = fake
        try:
            wl.map_op(i, workers, rec)
        finally:
            wignerfield.evaluate_map = evaluate_map
        if (rec.attempted, len(rec.failures)) != (1, 1):
            problems.append(f"{name}: {len(rec.failures)}/{rec.attempted} "
                            f"failed, expected 1/1")

    studies = workloads.build("studies", ROOT, 1, tiny=True)
    studies.prepare(tmp)
    map_study = next(i for i, c in enumerate(studies.configs)
                     if c.study == "wigner-map")
    cases = [("study exiting with 1", cli, "main", lambda argv: 1, 0),
             ("map study with max_panels=1", cli, "evaluate_map", one_panel,
              map_study)]
    for name, module, attr, fake, i in cases:
        real = getattr(module, attr)
        setattr(module, attr, fake)
        rec = workloads.Recorder()
        try:
            studies.study_op(i, tmp / name.replace(" ", "_"), 1, rec)
        finally:
            setattr(module, attr, real)
        if (rec.attempted, len(rec.failures)) != (1, 1):
            problems.append(f"{name}: {len(rec.failures)}/{rec.attempted} "
                            f"failed, expected 1/1")

    import run

    def raises_after_timing(rec):
        rec.timed("op", lambda: None)
        raise OSError("artifact vanished")

    rec = workloads.Recorder()
    run.guarded(raises_after_timing, rec)
    if (rec.attempted, len(rec.failures)) != (1, 1):
        problems.append(f"raise after timing: {len(rec.failures)}/"
                        f"{rec.attempted} failed, expected 1/1")

    context = getattr(wignerfield, "_Context", None)
    if context is not None:  # private; the check lapses if it is renamed
        sc, _ = studies.points[-1]
        ctx = context(sc)
        lib = 2.0 * abs(ctx.prefactor) * ctx.envelope_scale
        ours = workloads.envelope_bound(sc)
        if not abs(ours - lib) <= 1e-12 * lib:
            problems.append(f"envelope_bound {ours!r} differs from the "
                            f"library's {lib!r}")
    shutil.rmtree(tmp, ignore_errors=True)
    return problems


def check_empty_dir():
    bare = OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy2(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    res = run_bench(bare, "--workload", "map-long", "--seed", "1",
                    "--seconds", "1", "--trace", "0")
    shutil.rmtree(bare, ignore_errors=True)
    if res.returncode == 0 or res.stdout.strip():
        return [f"bare directory: exit {res.returncode}, "
                f"stdout {res.stdout.strip()[:200]!r}"]
    return []


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = check_metrics(spec) + check_gates() + check_empty_dir()
    for p in problems:
        print("FAIL", p)
    print("selftest:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
