"""Regenerate the golden CLI reports. Run from anywhere:

    python3 tests/make_goldens.py

Keep the outputs under version control; the test suite compares bytes.
"""

import contextlib
import io
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# the package from this checkout's src/, as pytest's pythonpath has it
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

from golden_cases import CASES, INTERNAL_ERROR_CASE, forced_internal_error

import nonholonomy.cli


def run_case(argv):
    resolved = [
        os.path.join(HERE, a) if a.startswith("data/") else a for a in argv
    ]
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = nonholonomy.cli.main(resolved)
    return code, buffer.getvalue()


def main():
    golden_dir = os.path.join(HERE, "golden")
    os.makedirs(golden_dir, exist_ok=True)
    runs = [(case, contextlib.nullcontext) for case in CASES]
    runs.append((INTERNAL_ERROR_CASE, forced_internal_error))
    for (name, argv, expected), context in runs:
        with context():
            code, text = run_case(argv)
        if code != expected:
            raise SystemExit("%s: exit %d, expected %d" % (name, code, expected))
        with open(os.path.join(golden_dir, name), "w", encoding="utf-8") as handle:
            handle.write(text)
        print("wrote %s (exit %d)" % (name, code))


if __name__ == "__main__":
    main()
