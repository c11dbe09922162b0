#!/usr/bin/env python3
"""Structural validator for the Chrome trace-event JSON that
obs::write_chrome_trace emits (and chrome://tracing / Perfetto load).

Checks, per file:
  - the file parses as JSON: an object with a "traceEvents" array
  - every event is an object with an integer "pid" and one of the six
    phases the exporter writes: metadata "M", complete "X", flow "s"/"f",
    instant "i" and counter "C"; any other "ph", duration "B"/"E" pairs
    among them, is an error
  - "M", "X", "i" and "C" events carry a name; complete events ("X") a
    tid and a non-negative dur
  - flow arrows ("s"/"f") carry id/tid/ts and every finish has a start
  - instant events ("i") carry a valid scope, counters ("C") a numeric value
  - every "ts" is a non-negative JSON number

Spans artifacts (*.spans.json) are checked by gtw-trace, which loads them
with the strict obs::load_spans and exits non-zero on a malformed line or a
footer mismatch.

This is intentionally a format check, not a semantic one: the byte-level
determinism of the same files is covered by tools/determinism_gate.py.
Standard library only.  Exit status: 0 all files valid, 1 otherwise.
"""

from __future__ import annotations

import json
import numbers
import sys

KNOWN_PHASES = {"M", "X", "s", "f", "i", "C"}


def check_event(ev: object, idx: int, errors: list[str]) -> dict | None:
    def err(msg: str) -> None:
        errors.append(f"event {idx}: {msg}")

    if not isinstance(ev, dict):
        err(f"not an object: {ev!r}")
        return None
    ph = ev.get("ph")
    if ph not in KNOWN_PHASES:
        err(f"unknown ph {ph!r}")
        return None
    if not isinstance(ev.get("pid"), int):
        err(f"ph {ph}: missing integer pid")

    if ph != "M":
        ts = ev.get("ts")
        if not isinstance(ts, numbers.Real) or isinstance(ts, bool) or ts < 0:
            err(f"ph {ph}: ts must be a non-negative number, got {ts!r}")

    if ph in ("M", "X", "i", "C") and not isinstance(ev.get("name"), str):
        err(f"ph {ph}: missing string name")
    if ph in ("X", "s", "f") and not isinstance(ev.get("tid"), int):
        err(f"ph {ph}: missing integer tid")
    if ph == "X":
        dur = ev.get("dur")
        if not isinstance(dur, numbers.Real) or isinstance(dur, bool) \
                or dur < 0:
            err(f"complete event: dur must be a non-negative number, "
                f"got {dur!r}")
    if ph in ("s", "f") and not isinstance(ev.get("id"), int):
        err(f"ph {ph}: missing integer flow id")
    if ph == "i" and ev.get("s") not in ("g", "p", "t"):
        err(f"instant event: scope {ev.get('s')!r} not one of g/p/t")
    if ph == "C":
        args = ev.get("args")
        if not isinstance(args, dict) or not any(
                isinstance(v, numbers.Real) and not isinstance(v, bool)
                for v in args.values()):
            err("counter event: args must hold a numeric value")
    return ev


def validate(path: str) -> list[str]:
    errors: list[str] = []
    try:
        with open(path, "rb") as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        return [f"unreadable or invalid JSON: {e}"]
    if not isinstance(doc, dict) or not isinstance(doc.get("traceEvents"),
                                                   list):
        return ["top level must be an object with a traceEvents array"]

    flows_started: set[int] = set()
    counts: dict[str, int] = {}
    for idx, raw in enumerate(doc["traceEvents"]):
        ev = check_event(raw, idx, errors)
        if ev is None:
            continue
        ph = ev["ph"]
        counts[ph] = counts.get(ph, 0) + 1
        if ph == "s":
            flows_started.add(ev["id"])
        elif ph == "f":
            if ev["id"] not in flows_started:
                errors.append(
                    f"event {idx}: flow finish id {ev['id']} never started")
    if not errors:
        summary = " ".join(f"{ph}={counts[ph]}" for ph in sorted(counts))
        print(f"validate-chrome-trace: ok: {path} "
              f"({len(doc['traceEvents'])} events: {summary})")
    return errors


def main(argv: list[str]) -> int:
    if not argv:
        print("usage: validate_chrome_trace.py trace.json [trace.json ...]",
              file=sys.stderr)
        return 1
    status = 0
    for path in argv:
        for e in validate(path):
            print(f"validate-chrome-trace: FAIL: {path}: {e}")
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
