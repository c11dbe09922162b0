#!/usr/bin/env python3
"""Self-test of gtw-bench: checks the harness, not the simulator's speed.

    python3 gtwbench/selftest.py

For every workload, on a fixed small number of scenario units:
  - per-layer event counts sum to des.events;
  - the traced and untraced runs of one seed print identical model results
    and stream-hash digests (attaching the ledger changes nothing simulated);
  - two traced runs of one seed give identical counts;
  - a different seed draws a different scenario mix;
  - the traced run confirms the workload design (README.md, "Design
    checks").  The one check the ledger refutes is reported, not failed.
Exits non-zero on the first failed check.
"""
import json
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import run as bench  # noqa: E402

UNITS = {"wan_bulk": 3, "fire_realtime": 1, "national_star": 1}
EVENT_LAYERS = ["link", "atm", "host", "tcp", "meta", "flow"]


def invoke(binary, workload, seed, trace):
    out = subprocess.run(
        [str(binary), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace),
         "--units", str(UNITS[workload])],
        check=True, capture_output=True, text=True, timeout=170).stdout
    lines = out.splitlines()
    tagged = {l.split(":", 1)[0]: l.split(":", 1)[1].strip()
              for l in lines[:-1] if ":" in l}
    return tagged, json.loads(lines[-1])


def value(result, name):
    return result["metrics"][name]["value"]


def main():
    binary = bench.build()
    failures = []

    def check(ok, what):
        print("%s  %s" % ("ok  " if ok else "FAIL", what))
        if not ok:
            failures.append(what)

    for w in UNITS:
        plain_tags, plain = invoke(binary, w, 1, 0)
        tags, traced = invoke(binary, w, 1, 1)
        _, traced2 = invoke(binary, w, 1, 1)
        other_tags, _ = invoke(binary, w, 2, 0)
        check(plain["correct"] and traced["correct"] and traced["failed"] == 0,
              "%s: every op passes its oracle, traced and untraced" % w)

        layered = sum(value(traced, l + ".events") for l in EVENT_LAYERS)
        layered += value(traced, "des.unattributed_events")
        check(layered == value(traced, "des.events"),
              "%s: per-layer events sum to des.events (%d)"
              % (w, value(traced, "des.events")))
        check(plain_tags["model"] == tags["model"],
              "%s: traced and untraced model results and digest agree" % w)
        counts = {k: v["value"] for k, v in traced["metrics"].items()
                  if v["unit"] in ("count", "hash") or k.startswith("model.")}
        counts2 = {k: v["value"] for k, v in traced2["metrics"].items()
                   if k in counts}
        check(counts == counts2,
              "%s: two traced runs give identical counts (%d compared)"
              % (w, len(counts)))
        check(other_tags["scenarios"] != plain_tags["scenarios"],
              "%s: seed 2 draws another scenario mix" % w)

        kernels = value(traced, "scanner.share") + value(traced, "fire.share")
        if w == "fire_realtime":
            check(kernels >= 0.9,
                  "%s: scanner + fire take >= 90%% of host time (%.3f)"
                  % (w, kernels))
        else:
            check(kernels == 0, "%s: scanner + fire take no host time" % w)
        if w == "national_star":
            check(value(traced, "tcp.events") == 0
                  and value(traced, "meta.events") == 0,
                  "%s: tcp and meta see no events" % w)
            blocks = {l: value(traced, l + ".share")
                      for l in EVENT_LAYERS}
            blocks["des.queue"] = value(traced, "des.queue_share")
            ranked = sorted(blocks.items(), key=lambda kv: -kv[1])[:3]
            print("note  %s: largest host-time blocks %s%s" % (
                w, ", ".join("%s %.2f" % kv for kv in ranked),
                "" if ranked[0][0] == "des.queue" else
                " (the des queue is not the largest block; see README.md)"))

    print("%d check(s) failed" % len(failures) if failures else "all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
