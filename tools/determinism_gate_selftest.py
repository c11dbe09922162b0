#!/usr/bin/env python3
"""Self-test for the double-run replay gate (determinism_gate.py).

Generates small programs whose two runs agree or part in known ways, runs
the gate on each as a subprocess, and checks its exit status and the line
that names what went wrong.  A program learns which run it is from a
counter file beside it, so the two runs differ only where a case says so.
Registered as the `determinism_gate_selftest` ctest.

Exit status: 0 all expectations met, 1 otherwise.  Standard library only.
"""

from __future__ import annotations

import os
import stat
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
GATE = os.path.join(HERE, "determinism_gate.py")

# Every generated program starts with this: RUN is 1 on the first call
# and 2 on the second.
PRELUDE = """\
import os, sys
_count = os.path.join(os.path.dirname(os.path.abspath(__file__)), "count")
RUN = int(open(_count).read()) + 1 if os.path.exists(_count) else 1
open(_count, "w").write(str(RUN))
def write(name, text):
    with open(name, "w") as f:
        f.write(text)
"""


def trail(*hashes: str) -> str:
    points = ", ".join(f'{{"t_s": {0.025 * (i + 1):.3f}, "hash": "{h}"}}'
                       for i, h in enumerate(hashes))
    return f'{{"national_exact": {{"hash_checkpoints": [{points}]}}}}\n'


# name -> (program body, extra gate arguments, exit status, text the
# gate's output must contain).
CASES = {
    "identical runs": (
        'print("hello")\nwrite("BENCH_t.json", "{}\\n")\n',
        [], 0, "ok: BENCH_t.json"),
    "output differs per run": (
        'print(f"value {RUN}")\n',
        [], 1, "(stdout+stderr) diverges at byte 6"),
    "checkpoint trails part": (
        'print("x")\n'
        f'write("BENCH_t.json", {trail("0x1", "0x2", "0x3")!r} if RUN == 1 '
        f'else {trail("0x1", "0x2", "0x4")!r})\n',
        [], 1, "runs agree up to t=0.05s, first diverge by t=0.075s"),
    "file written by one run": (
        'print("x")\nif RUN == 1: write("OBS_t.json", "{}\\n")\n',
        [], 1, "OBS_t.json written by only one run"),
    "expected file never written": (
        'print("x")\n',
        ["--expect=BENCH_t.json"], 1,
        "expected artifacts not produced: BENCH_t.json"),
    "run prints and writes nothing": (
        "",
        [], 1, "the run printed nothing and wrote no"),
    "program exits non-zero": (
        'print("x")\nsys.exit(3)\n',
        [], 2, "command exited 3"),
}


def check(name: str, body: str, extra: list[str], want_status: int,
          want_text: str) -> str | None:
    with tempfile.TemporaryDirectory(prefix="gate_selftest_") as d:
        prog = os.path.join(d, "prog.py")
        with open(prog, "w", encoding="utf-8") as f:
            f.write(f"#!{sys.executable}\n{PRELUDE}{body}")
        os.chmod(prog, os.stat(prog).st_mode | stat.S_IXUSR)
        proc = subprocess.run(
            [sys.executable, GATE, "--bench", prog, *extra],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if proc.returncode != want_status:
        return (f"{name}: exit {proc.returncode}, expected {want_status}\n"
                f"{proc.stdout}")
    if want_text not in proc.stdout:
        return f"{name}: output lacks {want_text!r}\n{proc.stdout}"
    return None


def main() -> int:
    failures = 0
    for name, (body, extra, status, text) in CASES.items():
        problem = check(name, body, extra, status, text)
        if problem is None:
            print(f"selftest: ok: {name} (exit {status})")
        else:
            print(f"selftest: FAIL: {problem}")
            failures += 1
    print(f"selftest: {len(CASES)} cases, {failures} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
