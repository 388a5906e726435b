"""Line coverage of src/metalabel by the unit tests.

Usage: python tools/coverage.py

Runs the unit tests (tests/ without test_acceptance.py) in this process
under a stdlib line tracer, prints each executable line of
src/metalabel/*.py that no test ran, and exits 1 if one of them is not in
ALLOWED (exit 2 if a test fails). A line is executable when the compiled
module has an instruction on it. The tests that bound memory with
tracemalloc are left out: the tracer's own allocations count against their
bounds. Tier-1 runs them untraced.
"""

from __future__ import annotations

import os
import sys
import types

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "metalabel")

# (file, line text) of the lines that may go unrun, each with its reason
ALLOWED = {
    # runs only under `python -m metalabel.cli`, in a process of its own that
    # the tracer does not see; test_cli runs it there
    ("cli.py", "sys.exit(main())"),
}
TRACEMALLOC_TESTS = [
    "test_phase2_features_hold_one_block_of_transients",
    "test_label_drift_and_its_moments_hold_two_soft_label_arrays",
    "test_a_loaded_dataset_holds_one_byte_of_split_a_row",
    "test_an_epoch_gathers_into_buffers_of_one_block",
]


def executable_lines(path: str) -> set[int]:
    with open(path, encoding="utf-8") as fh:
        stack, lines = [compile(fh.read(), path, "exec")], set()
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def main() -> int:
    ran: dict[str, set[int]] = {}

    def trace(frame, event, arg):  # the global tracer, and the local one of src/'s frames
        path = frame.f_code.co_filename
        if not path.startswith(SRC):
            return None
        ran.setdefault(path, set()).add(frame.f_lineno)
        return trace

    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.settrace(trace)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", os.path.join(ROOT, "tests"),
                              "--ignore", os.path.join(ROOT, "tests", "test_acceptance.py"),
                              "-k", " and ".join(f"not {t}" for t in TRACEMALLOC_TESTS)])
    finally:
        sys.settrace(None)
    if status != 0:
        return 2
    missed = 0
    for name in sorted(f for f in os.listdir(SRC) if f.endswith(".py")):
        path = os.path.join(SRC, name)
        with open(path, encoding="utf-8") as fh:
            text = fh.read().splitlines()
        for line in sorted(executable_lines(path) - ran.get(path, set())):
            allowed = (name, text[line - 1].strip()) in ALLOWED
            missed += not allowed
            print(f"src/metalabel/{name}:{line}: {text[line - 1].strip()}"
                  + ("  (allowed)" if allowed else ""))
    print(f"{missed} unrun {'line' if missed == 1 else 'lines'} outside the allowlist")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
