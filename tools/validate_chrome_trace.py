#!/usr/bin/env python3
"""Structural validator for the Chrome trace-event JSON the obs exporters
emit (and chrome://tracing / Perfetto load).

Checks, per file:
  - the file parses as JSON: an object with a "traceEvents" array
  - every event is an object with a known "ph" and integer "pid"
  - duration events ("B"/"E") carry name/tid/ts and balance per (tid, name)
  - flow arrows ("s"/"f") carry id/tid/ts and every finish has a start
  - instant events ("i") carry a valid scope, counters ("C") a numeric value
  - every "ts" is a non-negative JSON number

Files named *.spans.json are validated as causal-span artifacts instead
(the line-oriented format obs::SpanTracer::write_json emits, DESIGN.md
section 13): a {"gtw_spans": 1} header, trace and span lines with exact
integer-picosecond stamps, dense 1-based span ids and well-formed lane keys
("lane"; a message send adds "to" and "bytes"), and a footer whose counts
must match the lines actually present — the same truncation detection
gtw-trace's loader performs, kept in sync here so CI catches a bad
artifact even without running the tool.

This is intentionally a format check, not a semantic one: the byte-level
determinism of the same files is covered by tools/determinism_gate.py.
Standard library only.  Exit status: 0 all files valid, 1 otherwise.
"""

from __future__ import annotations

import json
import numbers
import sys

KNOWN_PHASES = {"M", "B", "E", "X", "s", "f", "i", "C"}


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

    if ph in ("M", "B", "E", "X", "i", "C") \
            and not isinstance(ev.get("name"), str):
        err(f"ph {ph}: missing string name")
    if ph in ("B", "E", "X", "s", "f") and not isinstance(ev.get("tid"), int):
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


SPAN_TRACE_STATUS = ("open", "closed", "aborted")
SPAN_STATUS = ("ok", "aborted", "open")


def validate_spans(path: str) -> list[str]:
    """Causal-span artifact (line-oriented, see obs::SpanTracer::write_json):
    header, trace lines, span lines (dense 1-based ids, integer-picosecond
    stamps), and a footer whose counts must match what is present."""
    errors: list[str] = []
    try:
        with open(path, encoding="utf-8") as f:
            lines = f.read().splitlines()
    except OSError as e:
        return [f"unreadable: {e}"]
    if not lines:
        return ["empty file: missing {\"gtw_spans\"} header"]

    def parse(idx: int) -> dict | None:
        try:
            obj = json.loads(lines[idx])
        except ValueError as e:
            errors.append(f"line {idx + 1}: invalid JSON: {e}")
            return None
        if not isinstance(obj, dict):
            errors.append(f"line {idx + 1}: not an object")
            return None
        return obj

    header = parse(0)
    if header is None:
        return errors
    if header.get("gtw_spans") != 1 or not isinstance(header.get("label"),
                                                      str):
        return [f"line 1: bad header {lines[0]!r}: expected "
                "{\"gtw_spans\": 1, \"label\": ...}"]

    traces = spans = open_spans = 0
    footer = None
    for idx in range(1, len(lines)):
        obj = parse(idx)
        if obj is None:
            continue

        def err(msg: str) -> None:
            errors.append(f"line {idx + 1}: {msg}")

        if "spans_total" in obj:
            footer = obj
            if idx != len(lines) - 1:
                err("footer is not the last line")
            break
        if "span" in obj:
            spans += 1
            if obj.get("span") != spans:
                err(f"span id {obj.get('span')!r}: ids must be dense and "
                    f"1-based (expected {spans})")
            if obj.get("status") not in SPAN_STATUS:
                err(f"span status {obj.get('status')!r} not one of "
                    f"{'/'.join(SPAN_STATUS)}")
            if obj.get("status") == "open":
                open_spans += 1
            for k in ("trace", "parent", "begin_ps", "end_ps"):
                v = obj.get(k)
                if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                    err(f"span field {k} must be a non-negative integer, "
                        f"got {v!r}")
            for k in ("phase", "layer", "name"):
                if not isinstance(obj.get(k), str):
                    err(f"span field {k} must be a string")
            # Lane keys: "lane" alone, or a send's "lane", "to" and "bytes".
            lane_keys = {k for k in ("lane", "to", "bytes") if k in obj}
            if lane_keys not in (set(), {"lane"}, {"lane", "to", "bytes"}):
                err(f"lane keys {sorted(lane_keys)}: want lane, or lane, "
                    "to and bytes")
            for k in sorted(lane_keys):
                v = obj[k]
                if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                    err(f"span field {k} must be a non-negative integer, "
                        f"got {v!r}")
        elif "trace" in obj:
            traces += 1
            if obj.get("status") not in SPAN_TRACE_STATUS:
                err(f"trace status {obj.get('status')!r} not one of "
                    f"{'/'.join(SPAN_TRACE_STATUS)}")
            if not isinstance(obj.get("root"), int):
                err("trace line missing integer root span id")
            if not isinstance(obj.get("origin"), str):
                err("trace line missing string origin")
        else:
            err(f"neither trace, span nor footer line: {lines[idx]!r}")

    if footer is None:
        errors.append("truncated: no {\"spans_total\"} footer")
    else:
        for k, have in (("spans_total", spans), ("traces_total", traces),
                        ("open_spans", open_spans)):
            if footer.get(k) != have:
                errors.append(f"footer {k}={footer.get(k)!r} but file has "
                              f"{have}")
    if not errors:
        print(f"validate-chrome-trace: ok: {path} (spans artifact: "
              f"{traces} trace(s), {spans} span(s), {open_spans} open)")
    return errors


def validate(path: str) -> list[str]:
    if path.endswith(".spans.json"):
        return validate_spans(path)
    errors: list[str] = []
    try:
        with open(path, "rb") as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        return [f"unreadable or invalid JSON: {e}"]
    if not isinstance(doc, dict) or not isinstance(doc.get("traceEvents"),
                                                   list):
        return ["top level must be an object with a traceEvents array"]

    opened: dict[tuple[int, str], int] = {}  # (tid, name) -> open B count
    flows_started: set[int] = set()
    counts: dict[str, int] = {}
    for idx, raw in enumerate(doc["traceEvents"]):
        ev = check_event(raw, idx, errors)
        if ev is None:
            continue
        ph = ev["ph"]
        counts[ph] = counts.get(ph, 0) + 1
        key = (ev.get("tid"), ev.get("name"))
        if ph == "B":
            opened[key] = opened.get(key, 0) + 1
        elif ph == "E":
            if opened.get(key, 0) <= 0:
                errors.append(f"event {idx}: E without matching B for {key}")
            else:
                opened[key] -= 1
        elif ph == "s":
            flows_started.add(ev["id"])
        elif ph == "f":
            if ev["id"] not in flows_started:
                errors.append(
                    f"event {idx}: flow finish id {ev['id']} never started")

    for key, n in sorted(opened.items()):
        if n != 0:
            errors.append(f"unbalanced duration events for {key}: {n} open")
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
