"""The lines of src/nvsk that a pytest run never executes.

    PYTHONPATH=src python3 tools/uncovered.py [pytest arguments]

Run from the repository root; the pytest arguments default to `-q -p
no:cacheprovider tests`. A stdlib line collector: it runs pytest in this
process under sys.settrace and threading.settrace, records each line
executed in a file under src/nvsk, and compares those with the lines the
compiler emits code for (continuation lines of a statement included).
Code run in a subprocess is not seen. It prints each unrun line as
`path:line: source`, then `unrun: N of M executable lines`, and exits
with pytest's exit code. Tracing makes the suite a few times slower.
"""

from __future__ import annotations

import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "nvsk"


def executable_lines(path: Path) -> set:
    """The line numbers of path that some bytecode instruction carries."""
    lines, codes = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for *_, line in code.co_lines() if line)
        codes.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def run(pytest_args) -> tuple:
    """pytest's exit code and the (file, line) pairs executed under src/nvsk."""
    import pytest

    hits, ours = set(), {}

    def is_ours(filename):
        if filename not in ours:
            ours[filename] = Path(os.path.realpath(filename)).parent == PACKAGE
        return ours[filename]

    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        if not is_ours(frame.f_code.co_filename):
            return None
        hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(list(pytest_args))
    finally:
        sys.settrace(None)
        threading.settrace(None)
    ran = {}
    for filename, line in hits:
        ran.setdefault(Path(os.path.realpath(filename)).name, set()).add(line)
    return code, ran


def main(argv) -> int:
    code, ran = run(argv or ["-q", "-p", "no:cacheprovider", "tests"])
    total = unrun = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        lines = executable_lines(path)
        missed = sorted(lines - ran.get(path.name, set()))
        total += len(lines)
        unrun += len(missed)
        for line in missed:
            print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
    print(f"unrun: {unrun} of {total} executable lines")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
