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
differing exit code or stderr is printed as such.  Not part of the test
suite; it takes a few seconds per checkout.  Exits 1 when some output,
exit code or stderr differs from the other checkout, else 0.

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
    the column's largest |value| in ``old``, and the differing header
    lines."""
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
    moved, worst, other = 0, 0.0, 0
    for row_new, row_old in zip(r_new, r_old):
        for j, (a, b) in enumerate(zip(row_new, row_old)):
            if a == b:
                continue
            fa, fb = as_float(a), as_float(b)
            if fa is None or fb is None or scales[j] == 0.0:
                other += 1
                continue
            moved += 1
            worst = max(worst, abs(fa - fb) / scales[j])
    parts = [f"{moved} cells moved, largest {worst:.2g} of "
             + ("map scale" if is_map else "column max")]
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
        others = None
        if args.against is not None:
            (Path(tmp) / "other").mkdir()
            others = run_configs(args.against.resolve(), Path(tmp) / "other")
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
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
