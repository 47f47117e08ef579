"""Which lines and public functions of the library the benchmark and the
demos never run.

Runs one cycle of both benchmark workloads of ``perfbench/workloads.py``
(seed 1, with their workers=2 operations) and every script of ``demos/``
in a temporary directory, under a line tracer on ``src/cherenkov_wigner/``,
then prints, per module, the executable lines that never ran and the
functions of its ``__all__`` that were never called.  Nothing is written
under the checkout: no bytecode, and every output goes to a temporary
directory, which holds copies of ``demos/`` and ``data/`` so that each
demo's ``output/`` and the bundled index table resolve there.  Not part of
the test suite; it takes a few seconds.

    python3 tools/traffic_lines.py
"""

import contextlib
import importlib
import inspect
import io
import runpy
import shutil
import sys
import tempfile
import threading
from pathlib import Path

sys.dont_write_bytecode = True
ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cherenkov_wigner"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

# the lines run so far, per library file, and the library code called
RAN = {str(path): set() for path in sorted(PACKAGE.glob("*.py"))}
CALLED = set()


def trace(frame, event, arg):
    """Line events of library frames only; other frames run untraced."""
    lines = RAN.get(frame.f_code.co_filename)
    if lines is None:
        return None
    CALLED.add(frame.f_code)

    def line(frame, event, arg):
        if event == "line":
            lines.add(frame.f_lineno)
        return line

    return line


def executable(path):
    """The line numbers that some instruction of the module belongs to."""
    lines, stack = set(), [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(n for _, _, n in code.co_lines() if n)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def spans(lines):
    """Sorted line numbers as 'a-b' runs."""
    out, lines = [], sorted(lines)
    for n in lines:
        if out and n == out[-1][1] + 1:
            out[-1][1] = n
        else:
            out.append([n, n])
    return ", ".join(f"{a}" if a == b else f"{a}-{b}" for a, b in out)


def run_traffic(tmp):
    import workloads
    failures = []
    for name in ("map-long", "studies"):
        out = tmp / name
        out.mkdir()
        wl = workloads.build(name, ROOT, 1)
        wl.prepare(out)
        rec = workloads.Recorder()
        for step in wl.steps(True):
            step(rec)
        failures += rec.failures
    # the copies keep the repository layout, demos/ beside data/
    shutil.copytree(ROOT / "data", tmp / "data")
    shutil.copytree(ROOT / "demos", tmp / "demos",
                    ignore=shutil.ignore_patterns("output", "__pycache__"))
    for script in sorted((tmp / "demos").glob("*.py")):
        with contextlib.redirect_stdout(io.StringIO()):
            runpy.run_path(str(script), run_name="__main__")
    return failures


def never_called(path):
    """The functions of the module's ``__all__`` that no call reached."""
    name = "cherenkov_wigner" if path.stem == "__init__" else \
        f"cherenkov_wigner.{path.stem}"
    module = importlib.import_module(name)
    out = []
    for export in getattr(module, "__all__", ()):
        obj = inspect.unwrap(getattr(module, export))
        if (inspect.isfunction(obj) and obj.__module__ == name
                and obj.__code__ not in CALLED):
            out.append(export)
    return out


def main():
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        with tempfile.TemporaryDirectory() as tmp:
            failures = run_traffic(Path(tmp))
    finally:
        sys.settrace(None)
        threading.settrace(None)
    for failure in failures:
        print(f"failed operation: {failure}")
    for name, ran in RAN.items():
        path = Path(name)
        idle = executable(path) - ran
        print(f"{path.relative_to(ROOT)}: {len(idle)} lines never ran")
        if idle:
            print(f"    {spans(idle)}")
        idle_functions = never_called(path)
        if idle_functions:
            print(f"    public functions never called: "
                  f"{', '.join(idle_functions)}")


if __name__ == "__main__":
    main()
