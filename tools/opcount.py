"""Count the bytecodes one ``tropdiv`` command runs.

    python3 tools/opcount.py gp0 --g 12 --r 3 --d 12 --tableau all --out F

Imports ``tropdiv`` from ``src/``, runs ``tropdiv.cli.main(argv)`` once
in this process under ``sys.settrace`` with ``frame.f_trace_opcodes``
set in every Python frame, and writes two lines to stderr, after
whatever the command itself writes:

    opcodes N
    exit CODE

N is the number of opcode events from the call into ``cli.main`` to its
return, and the script exits with the command's exit code.  Set and dict
order follow the hash seed, so unless ``PYTHONHASHSEED`` is already 0
the script first re-runs itself in a child process with it set to 0;
then two runs of one command give the same N, to the instruction.

The count measures what the interpreter does, with no timer, so the
machine's load cannot move it.  A call into C counts as one opcode
however long it runs (big-int arithmetic, ``sorted``, dict and set
work), so it sits beside wall time in a speed claim and never replaces
it; counts also differ between Python versions.  Tracing makes a run
about 8 times slower.  Stdlib only.
"""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def count(fn, *args):
    """Run ``fn(*args)`` with an opcode event for every instruction of
    every Python frame it enters; returns (its result, the number of
    those events), and puts the previous trace function back."""
    n = 0

    def on_event(frame, event, _arg):
        nonlocal n
        if event == "opcode":
            n += 1
        return on_event

    def on_call(frame, _event, _arg):
        frame.f_trace_opcodes = True
        return on_event

    old = sys.gettrace()
    sys.settrace(on_call)
    try:
        result = fn(*args)
    finally:
        sys.settrace(old)
    return result, n


def main(argv: list[str]) -> int:
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        return subprocess.run([sys.executable, __file__, *argv], env=env).returncode
    sys.path.insert(0, str(ROOT / "src"))
    from tropdiv import cli

    code, n = count(cli.main, argv)
    sys.stderr.write(f"opcodes {n}\nexit {code}\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
