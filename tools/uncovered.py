"""List the lines of ``src/graphcon`` that the test suite never runs.

Runs pytest in this process under a line tracer (``sys.settrace`` and
``threading.settrace``) that records only frames of ``src/graphcon``, then
compares the recorded lines with the lines each compiled code object
reports through ``co_lines()``. Prints one ``file:line: source`` per
executable line that never ran; pytest's output and a count go to stderr.
It is a report, not a gate: it exits 0 even where lines or tests are
missed. Tracing makes the suite several times slower, and CLI runs in a
child process are not seen. Hypothesis runs derandomized with no
deadline, so reports repeat.

    python tools/uncovered.py                        # the whole suite
    python tools/uncovered.py tests/test_solver.py   # arguments go to pytest
"""

import contextlib
import sys
import threading
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "graphcon"


def executable_lines(path: Path) -> set:
    """Line numbers that some instruction of the module's code maps to."""
    lines, codes = set(), [compile(path.read_text(), str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # a module starts at line 0
        codes.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


class _Repeatable:
    """pytest plugin: Hypothesis derandomized, with no deadline to trip
    over the tracing, and no example database. It imports Hypothesis only
    once pytest runs, so that pytest can still rewrite its plugin modules."""

    @staticmethod
    def pytest_configure(config):
        from hypothesis import settings

        settings.register_profile("uncovered", deadline=None, derandomize=True, database=None)
        settings.load_profile("uncovered")


def traced_run(pytest_args: list) -> tuple:
    """pytest's exit code, and the lines run per file of the package."""
    prefix = str(PACKAGE)
    hits = defaultdict(set)

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def global_(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    threading.settrace(global_)
    sys.settrace(global_)
    try:
        with contextlib.redirect_stdout(sys.stderr):  # stdout holds the report alone
            code = pytest.main(pytest_args, plugins=[_Repeatable()])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return code, hits


def main(argv: list) -> int:
    args = argv or ["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
                    str(ROOT / "tests")]
    code, hits = traced_run(args)
    loaded = sys.modules.get("graphcon")
    if loaded is None or Path(loaded.__file__).resolve().parent != PACKAGE:
        print(f"error: the tests did not import graphcon from {PACKAGE}", file=sys.stderr)
        return 1
    missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text().splitlines()
        for line in sorted(executable_lines(path) - hits[str(path)]):
            print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
            missed += 1
    print(f"{missed} executable lines never ran; pytest exited {code}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
