"""The test suite one file at a time.

Runs each ``tests/test_*.py`` in its own pytest process (with
``-p no:cacheprovider`` and ``src`` on ``PYTHONPATH``) and prints its pass
and fail counts, one line per file.  A test whose outcome depends on the
other modules of the run, such as a Hypothesis property whose drawn
examples change with what else is imported, can pass in the whole suite
and fail in its own file; this shows it.  Not part of the test suite; it
takes about as long as the suite plus one interpreter start per file.
Exits 1 when some file has a failure or error, else 0.

    python3 tools/tier1_by_file.py
"""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# the outcome counts of pytest's summary line, e.g. "1 failed, 109 passed"
COUNT = re.compile(r"(\d+) (passed|failed|errors?|skipped|xfailed|xpassed)")


def summary(path):
    """The outcome counts of one test file run alone, as pytest words
    them, and whether any test failed or errored."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         str(path.relative_to(ROOT))],
        cwd=ROOT, env=env, capture_output=True, text=True)
    lines = run.stdout.strip().splitlines()
    counts = COUNT.findall(lines[-1]) if lines else []
    if not counts:
        return f"no summary (exit {run.returncode})", True
    return (", ".join(f"{n} {word}" for n, word in counts),
            any(word in ("failed", "error", "errors") for _, word in counts))


def main():
    bad = False
    for path in sorted((ROOT / "tests").glob("test_*.py")):
        text, failed = summary(path)
        bad |= failed
        print(f"{path.relative_to(ROOT)}: {text}", flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
