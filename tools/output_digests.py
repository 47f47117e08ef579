"""The sha256 of every bundled output, and how far each moved.

Runs ``chr <study> --config <cfg> --format csv+svg`` for each bundled
config of ``configs/`` in a temporary directory, with the checkout's
``src`` on ``PYTHONPATH`` and no bytecode written, and prints each
config's exit code and stderr and each artifact's sha256.  With
``--against <checkout>`` it runs the other checkout's ``src`` on its own
copies of the same configs too, and prints, per artifact, whether its
bytes are the same; for a CSV that moved, the number of moved cells and
the largest move, relative to the map scale (max |value| of a map's data
cells) or to the column's largest |value| in the other checkout.  A
differing exit code or stderr is printed as such.

It also runs ``evaluate_point`` on the benchmark's point set, as
``perfbench/workloads.py`` of this checkout builds it at seed 1: the 126
points of the ``studies`` workload and the 128 map nodes of ``map-long``
timed one at a time.  Each point gives one record: its value, error
estimate and flags, and the rule (``gk`` or ``levin``), rounds and panels
of its ``BatchQuadrature``; the sha256 of the records is printed, and
with ``--against`` each record that differs from the other checkout's.

Not part of the test suite; it takes a few seconds per checkout.  Exits 1
when some output, exit code, stderr or point record differs from the
other checkout, else 0.

    python3 tools/output_digests.py [--against ../other-checkout]
"""

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def study_of(cfg):
    """The ``study = ...`` value of a config file."""
    for line in cfg.read_text().splitlines():
        key, _, value = line.partition("=")
        if key.strip() == "study":
            return value.strip()
    raise ValueError(f"{cfg}: no study key")


def run_configs(checkout, out_root):
    """{config name: (exit code, stderr, {artifact name: bytes})} of every
    bundled config of ``checkout`` run with its own ``src``."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=str(checkout / "src"))
    runs = {}
    for cfg in sorted((checkout / "configs").glob("*.cfg")):
        out = out_root / cfg.stem
        run = subprocess.run(
            [sys.executable, "-m", "cherenkov_wigner.cli", study_of(cfg),
             "--config", str(cfg), "--out-dir", str(out),
             "--format", "csv+svg"],
            cwd=out_root, env=env, capture_output=True, text=True)
        files = sorted(out.iterdir()) if out.is_dir() else []
        runs[cfg.name] = (run.returncode, run.stderr.strip(),
                          {f.name: f.read_bytes() for f in files})
    return runs


def point_records():
    """Print one record per point of the benchmark's point set (see the
    module docstring), read from the ``BatchQuadrature`` that
    ``evaluate_point`` makes; run in a child process whose path holds the
    checkout's ``src`` and this checkout's ``perfbench``."""
    import workloads
    from cherenkov_wigner import numerics, wignerfield
    made = []
    integrate = numerics.integrate_batch

    def recorded(*args, **kwargs):
        made.append(integrate(*args, **kwargs))
        return made[-1]

    numerics.integrate_batch = recorded
    points = [(f"studies point {i}", sc, R) for i, (sc, R) in
              enumerate(workloads.rotated_points(1, False))]
    maps = workloads.build("map-long", ROOT, 1)
    points += [(f"map-long map {m} node {iy},{ix}", sc, R)
               for m, nodes in enumerate(maps.points)
               for (iy, ix), sc, R in nodes]
    for label, sc, R in points:
        try:
            value, err, flags = wignerfield.evaluate_point(sc, R)
        except Exception as exc:  # a record like any other
            print(f"{label}: raised {type(exc).__name__}: {exc}")
            continue
        res = made[-1]
        print(f"{label}: {value!r} {err!r} {flags} "
              f"{'levin' if res.levin else 'gk'} {res.rounds} "
              f"{res.panels_used}")


def run_points(checkout, cwd):
    """The lines ``point_records`` prints with ``checkout``'s ``src``."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(
                   str(p) for p in (checkout / "src", ROOT / "tools",
                                    ROOT / "perfbench")))
    run = subprocess.run(
        [sys.executable, "-c",
         "import output_digests; output_digests.point_records()"],
        cwd=cwd, env=env, capture_output=True, text=True, check=True)
    return run.stdout.splitlines()


def cells(text):
    """(header lines, data rows) of a CSV: '#' lines, then the rows split
    at commas."""
    lines = text.splitlines()
    header = [line for line in lines if line.startswith("#")]
    rows = [line.split(",") for line in lines if not line.startswith("#")]
    return header, rows


def as_float(cell):
    try:
        return float(cell)
    except ValueError:
        return None


def csv_moves(new, old):
    """A one-line account of how CSV ``new`` differs from ``old``: the
    moved data cells and their largest move relative to the map scale or
    the column's largest |value| in ``old``, the cells whose text differs
    but whose parsed values are the same (``0.0`` and ``0``), and the
    differing header lines."""
    (h_new, r_new), (h_old, r_old) = cells(new), cells(old)
    if [len(r) for r in r_new] != [len(r) for r in r_old]:
        return "layout differs"
    is_map = h_old[:1] == ["# cherenkov-wigner map v1"]
    columns = max((len(r) for r in r_old), default=0)
    scales = [0.0] * columns
    for row in r_old:
        for j, cell in enumerate(row):
            v = as_float(cell)
            if v is not None and v == v and abs(v) != float("inf"):
                scales[j] = max(scales[j], abs(v))
    if is_map:
        scales = [max(scales, default=0.0)] * columns
    moved, worst, text_only, other = 0, 0.0, 0, 0
    for row_new, row_old in zip(r_new, r_old):
        for j, (a, b) in enumerate(zip(row_new, row_old)):
            if a == b:
                continue
            fa, fb = as_float(a), as_float(b)
            if fa is not None and fb is not None and repr(fa) == repr(fb):
                text_only += 1
                continue
            if fa is None or fb is None or scales[j] == 0.0:
                other += 1
                continue
            moved += 1
            worst = max(worst, abs(fa - fb) / scales[j])
    parts = [f"{moved} cells moved, largest {worst:.2g} of "
             + ("map scale" if is_map else "column max")]
    if text_only:
        parts.append(f"{text_only} cells differ in text only")
    if other:
        parts.append(f"{other} other cells differ")
    headers = [f"{a!r} (was {b!r})" for a, b in zip(h_new, h_old) if a != b]
    if len(h_new) != len(h_old):
        headers.append(f"{len(h_new)} header lines (was {len(h_old)})")
    if headers:
        parts.append("header " + "; ".join(headers))
    return ", ".join(parts)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--against", type=Path,
                        help="another checkout to compare the outputs with")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "this").mkdir()
        runs = run_configs(ROOT, Path(tmp) / "this")
        points = run_points(ROOT, tmp)
        others = other_points = None
        if args.against is not None:
            (Path(tmp) / "other").mkdir()
            others = run_configs(args.against.resolve(), Path(tmp) / "other")
            other_points = run_points(args.against.resolve(), tmp)
    differ = False
    for name, (code, err, files) in runs.items():
        print(f"{name}: exit {code}")
        for line in err.splitlines():
            print(f"  stderr: {line}")
        other = None if others is None else others.get(name)
        if others is not None and other is None:
            print("  (no such config in the other checkout)")
            differ = True
        elif other is not None:
            if other[0] != code:
                print(f"  exit code differs: other {other[0]}")
                differ = True
            if other[1] != err:
                print(f"  stderr differs: other {other[1]!r}")
                differ = True
        for fname, data in files.items():
            line = f"  {hashlib.sha256(data).hexdigest()}  {fname}"
            if other is not None:
                old = other[2].get(fname)
                if old is None:
                    line += "  (new)"
                elif old == data:
                    line += "  same"
                elif fname.endswith(".csv"):
                    line += "  " + csv_moves(data.decode(), old.decode())
                else:
                    line += "  differs"
                differ |= old != data
            print(line)
        if other is not None:
            for fname in sorted(set(other[2]) - set(files)):
                print(f"  (missing) {fname}")
                differ = True
    digest = hashlib.sha256("\n".join(points).encode()).hexdigest()
    print(f"points: {len(points)} records")
    line = f"  {digest}  point records"
    if other_points is not None:
        moved = [(a, b) for a, b in zip(points, other_points) if a != b]
        if len(points) != len(other_points):
            line += f"  {len(other_points)} records in the other checkout"
            differ = True
        elif moved:
            line += f"  {len(moved)} records differ"
            differ = True
        else:
            line += "  same"
        print(line)
        for a, b in moved:
            print(f"  {a}\n    (was {b.partition(': ')[2]})")
    else:
        print(line)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
