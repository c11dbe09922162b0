#!/usr/bin/env python3
"""Double-run determinism gate.

Runs a seeded bench or example program twice, without arguments, each
time in a fresh empty directory, and fails unless both runs printed the
same output (stdout with stderr merged) and wrote the same BENCH_*.json
and OBS_*.json artifacts, byte for byte.  This is the runtime complement
to the static rules in tools/lint/gtw_lint.py: gtw-lint bans the
constructs that *cause* divergence, this gate proves the absence of
divergence end to end — same binary, same seed, same bytes out.

Exit status: 0 byte-identical, 1 divergence (or nothing printed or
written), 2 usage or subprocess failure.  Standard library only.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import os
import re
import subprocess
import sys
import tempfile

ARTIFACT_GLOBS = ["BENCH_*.json", "OBS_*.json"]
# The run's own output is compared as one more artifact; no file the
# globs match can carry this name.
OUTPUT = "(stdout+stderr)"


def run_once(binary: str, workdir: str) -> dict[str, bytes]:
    proc = subprocess.run([binary], cwd=workdir, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout.decode(errors="replace"))
        raise RuntimeError(f"command exited {proc.returncode}: {binary}")
    artifacts: dict[str, bytes] = {OUTPUT: proc.stdout}
    for pattern in ARTIFACT_GLOBS:
        for path in sorted(glob.glob(os.path.join(workdir, pattern))):
            with open(path, "rb") as f:
                artifacts[os.path.basename(path)] = f.read()
    return artifacts


def first_difference(a: bytes, b: bytes) -> int:
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return i
    return min(len(a), len(b))


def hex_context(data: bytes, off: int, span: int = 16) -> str:
    """One line of hex+printable context around `off`, caret under the
    diverging byte, so a CI log pinpoints the mismatch without local
    reproduction."""
    lo = max(0, off - span)
    window = data[lo:off + span]
    hexes = " ".join(f"{b:02x}" for b in window)
    chars = "".join(chr(b) if 0x20 <= b < 0x7f else "." for b in window)
    caret = " " * (3 * (off - lo)) + "^^"
    return (f"    bytes {lo}..{lo + len(window)}: {hexes}\n"
            f"    {' ' * len('bytes ..: ')}{caret}\n"
            f"    printable: {chars!r}")


# "hash_checkpoints": [{"t_s": ..., "hash": "0x..."}] arrays embedded in an
# artifact (see bench/des_speed.cpp).  Parsed with a tolerant regex rather
# than full JSON so a *corrupt* diverging artifact still yields its
# checkpoint trail.
CHECKPOINT_ARRAY_RE = re.compile(
    rb"\"hash_checkpoints\"\s*:\s*\[(.*?)\]", re.DOTALL)
CHECKPOINT_RE = re.compile(
    rb"\{\s*\"t_s\"\s*:\s*([-0-9.eE+]+)\s*,\s*\"hash\"\s*:\s*\"(0x[0-9a-f]+)\"\s*\}")


def extract_checkpoints(data: bytes) -> list[list[tuple[float, str]]]:
    """All hash-checkpoint trails in an artifact, in order of appearance."""
    trails = []
    for m in CHECKPOINT_ARRAY_RE.finditer(data):
        trails.append([(float(t), h.decode())
                       for t, h in CHECKPOINT_RE.findall(m.group(1))])
    return trails


def localize_divergence(a: bytes, b: bytes) -> str | None:
    """Compare embedded stream-hash checkpoint trails between two runs and
    name the simulated-time window where they first disagree.  Returns a
    report line, or None if the artifact carries no checkpoints."""
    ta, tb = extract_checkpoints(a), extract_checkpoints(b)
    if not ta or not tb:
        return None
    for trail_idx, (ca, cb) in enumerate(zip(ta, tb)):
        prev_t = 0.0
        for (t1, h1), (t2, h2) in zip(ca, cb):
            if t1 != t2 or h1 != h2:
                return (f"  stream-hash checkpoints (trail {trail_idx}): "
                        f"runs agree up to t={prev_t:.6g}s, first diverge "
                        f"by t={max(t1, t2):.6g}s "
                        f"({h1} vs {h2}) — the nondeterministic event lies "
                        f"in that simulated-time window")
            prev_t = t1
        if len(ca) != len(cb):
            return (f"  stream-hash checkpoints (trail {trail_idx}): "
                    f"identical through t={prev_t:.6g}s but one run "
                    f"recorded {len(ca)} checkpoints, the other {len(cb)} — "
                    f"the runs drained at different simulated times")
    return ("  stream-hash checkpoints: all identical — the divergence is "
            "outside the simulated event stream (formatting or metadata)")


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(
        prog="determinism_gate", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--bench", required=True,
                    help="bench or example binary to replay twice")
    ap.add_argument("--expect", action="append", default=[],
                    dest="expected",
                    help="artifact filename that MUST be produced "
                         "(repeatable); guards against a bench silently "
                         "dropping an output while others keep the gate "
                         "non-vacuous")
    args = ap.parse_args(argv)

    binary = os.path.abspath(args.bench)

    try:
        with tempfile.TemporaryDirectory(prefix="det_run1_") as d1, \
                tempfile.TemporaryDirectory(prefix="det_run2_") as d2:
            run1 = run_once(binary, d1)
            run2 = run_once(binary, d2)
    except (RuntimeError, OSError) as e:
        print(f"determinism-gate: ERROR: {e}", file=sys.stderr)
        return 2

    if not any(run1.values()):
        print(f"determinism-gate: ERROR: the run printed nothing and wrote "
              f"no {' or '.join(ARTIFACT_GLOBS)} — the gate would "
              f"vacuously pass", file=sys.stderr)
        return 1

    missing = [name for name in args.expected if name not in run1]
    if missing:
        print(f"determinism-gate: ERROR: expected artifacts not produced: "
              f"{', '.join(missing)} (got: {', '.join(sorted(run1))})",
              file=sys.stderr)
        return 1

    status = 0
    for name in sorted(set(run1) | set(run2)):
        a, b = run1.get(name), run2.get(name)
        if a is None or b is None:
            print(f"determinism-gate: FAIL: {name} written by only one run")
            status = 1
            continue
        if a == b:
            digest = hashlib.sha256(a).hexdigest()[:16]
            print(f"determinism-gate: ok: {name} "
                  f"({len(a)} bytes, sha256 {digest})")
            continue
        off = first_difference(a, b)
        print(f"determinism-gate: FAIL: {name} diverges at byte {off} "
              f"(sizes {len(a)} vs {len(b)})\n"
              f"  run1:\n{hex_context(a, off)}\n"
              f"  run2:\n{hex_context(b, off)}")
        located = localize_divergence(a, b)
        if located is not None:
            print(located)
        status = 1
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
