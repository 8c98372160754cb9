#!/usr/bin/env python3
"""Offline validator for chaos-harness trace files (src/chaos DSL).

Re-validates a `.chaos` schedule/trace from nothing but the text:

  * every line parses — known schedule keys, well-formed `event` lines
    with known kinds, decimal-only numbers (mirrors ParseSchedule in
    src/chaos/chaos_schedule.cpp, including its strictness about unknown
    keys and malformed tokens);
  * semantic sanity — nonzero workload shape, percentage fields <= 100,
    event triggers within the run's total transaction count (an event
    with `at` beyond the last acked commit would never fire, so a
    recorded `events-fired` could not match);
  * the recorded `# result` footer, when present: the schedule digest is
    recomputed here (canonical re-serialization + FNV-1a, independent of
    the C++ code) and must equal the recorded one byte for byte.

With `--driver PATH` the validator additionally replays each trace
through `chaos_driver --replay`, which re-runs the schedule and compares
the recorded shadow digest and committed count against the live run —
the full end-to-end determinism check.

Exit 0 if every file passes, 1 with a report otherwise.
"""

import argparse
import subprocess
import sys

FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3
MASK64 = (1 << 64) - 1

EVENT_KINDS = [
    "corrupt",
    "read-error",
    "fail-range",
    "wearout",
    "stale-capture",
    "stale-revert",
    "full-restore",
    "back-to-back-restore",
    "crash",
    "crash-during-restore",
    "crash-during-restart",
    "relocate",
    "checkpoint",
    "backup",
    "quiesce",
]

# (key, default) in canonical serialization order — mirrors
# SerializeSchedule / the ChaosSchedule field defaults.
SCHEDULE_KEYS = [
    ("seed", 0),
    ("writers", 3),
    ("txns-per-writer", 60),
    ("ops-per-txn", 4),
    ("keys-per-writer", 96),
    ("value-len", 24),
    ("seed-records", 1200),
    ("contended-keys", 4),
    ("batch-pct", 25),
    ("delete-pct", 15),
    ("contended-pct", 10),
    ("scan-every", 8),
    ("scrubber", 1),
    ("archiver", 1),
    ("restore-segment-pages", 32),
    ("drain-timeout-ms", 2000),
]

PCT_KEYS = {"batch-pct", "delete-pct", "contended-pct"}

RESULT_KEYS = {"schedule-digest", "shadow-digest", "committed-txns",
               "events-fired"}


def fnv1a(data: bytes, h: int = FNV_OFFSET) -> int:
    for b in data:
        h = ((h ^ b) * FNV_PRIME) & MASK64
    return h


def parse_u64(tok):
    """Decimal-only, like ParseU64 in chaos_schedule.cpp."""
    if not tok or not tok.isascii() or not tok.isdigit():
        return None
    return int(tok)


class Trace:
    def __init__(self):
        self.fields = {k: d for k, d in SCHEDULE_KEYS}
        self.events = []  # dicts: at, kind, key, count, writes
        self.result = None  # dict or None
        self.errors = []
        self.warnings = []


def parse_trace(path):
    t = Trace()
    try:
        lines = open(path, encoding="utf-8").read().splitlines()
    except OSError as e:
        t.errors.append(f"cannot read: {e}")
        return t
    for ln, raw in enumerate(lines, 1):
        line = raw.rstrip("\r ")
        if not line:
            continue
        if line.startswith("# result"):
            res = {}
            for tok in line.split()[2:]:
                k, _, v = tok.partition("=")
                val = parse_u64(v)
                if "=" not in tok or val is None:
                    t.errors.append(f"line {ln}: malformed result token {tok!r}")
                elif k not in RESULT_KEYS:
                    t.errors.append(f"line {ln}: unknown result field {k!r}")
                else:
                    res[k] = val
            t.result = res
            continue
        if line.startswith("#"):
            continue
        if line.startswith("event "):
            ev = {"at": 0, "kind": None, "key": 0, "count": 1, "writes": 0}
            for tok in line.split()[1:]:
                k, _, v = tok.partition("=")
                if "=" not in tok:
                    t.errors.append(f"line {ln}: malformed event token {tok!r}")
                    continue
                if k == "kind":
                    if v not in EVENT_KINDS:
                        t.errors.append(f"line {ln}: unknown event kind {v!r}")
                    ev["kind"] = v
                    continue
                val = parse_u64(v)
                if val is None:
                    t.errors.append(f"line {ln}: bad event number {tok!r}")
                elif k in ("at", "key", "count", "writes"):
                    ev[k] = val
                else:
                    t.errors.append(f"line {ln}: unknown event field {k!r}")
            if ev["kind"] is None:
                t.errors.append(f"line {ln}: event without kind")
            else:
                t.events.append(ev)
            continue
        parts = line.split()
        if len(parts) < 2 or parse_u64(parts[1]) is None:
            t.errors.append(f"line {ln}: malformed schedule line {line!r}")
            continue
        key, val = parts[0], parse_u64(parts[1])
        if key not in t.fields:
            t.errors.append(f"line {ln}: unknown schedule key {key!r}")
            continue
        t.fields[key] = val
        if key in PCT_KEYS and val > 100:
            t.errors.append(f"line {ln}: {key} {val} exceeds 100")
    return t


def check_semantics(t):
    f = t.fields
    for key in ("writers", "txns-per-writer", "ops-per-txn",
                "keys-per-writer"):
        if f[key] == 0:
            t.errors.append(f"schedule needs nonzero {key}")
    total = f["writers"] * f["txns-per-writer"]
    for ev in t.events:
        if ev["at"] > total:
            t.errors.append(
                f"event at={ev['at']} can never fire: run acks only "
                f"{total} transactions")
        if ev["count"] != 1 and ev["kind"] != "fail-range":
            t.warnings.append(
                f"event kind={ev['kind']}: count= is only meaningful for "
                "fail-range (ignored)")
        if ev["writes"] != 0 and ev["kind"] != "wearout":
            t.warnings.append(
                f"event kind={ev['kind']}: writes= is only meaningful for "
                "wearout (ignored)")
    captures = sum(1 for e in t.events if e["kind"] == "stale-capture")
    reverts = sum(1 for e in t.events if e["kind"] == "stale-revert")
    if captures != reverts:
        t.warnings.append(
            f"unbalanced stale pair: {captures} capture(s), "
            f"{reverts} revert(s)")


def canonical_serialization(t):
    """Byte-for-byte mirror of SerializeSchedule over the parsed form."""
    out = ["# spf chaos trace v1"]
    for key, _ in SCHEDULE_KEYS:
        out.append(f"{key} {t.fields[key]}")
    for ev in sorted(t.events, key=lambda e: e["at"]):  # stable, like parse
        line = f"event at={ev['at']} kind={ev['kind']} key={ev['key']}"
        if ev["kind"] == "fail-range":
            line += f" count={ev['count']}"
        if ev["kind"] == "wearout":
            line += f" writes={ev['writes']}"
        out.append(line)
    return ("\n".join(out) + "\n").encode()


def check_footer(t):
    if t.result is None:
        t.warnings.append("no # result footer (schedule only, not a trace)")
        return
    missing = RESULT_KEYS - set(t.result)
    if missing:
        t.errors.append(f"result footer missing {sorted(missing)}")
        return
    want = fnv1a(canonical_serialization(t))
    got = t.result["schedule-digest"]
    if got != want:
        t.errors.append(
            f"schedule digest mismatch: footer says {got}, canonical "
            f"serialization hashes to {want}")
    if t.result["events-fired"] > len(t.events) + 1:  # +1: implicit quiesce
        t.errors.append(
            f"events-fired={t.result['events-fired']} exceeds the "
            f"{len(t.events)} scheduled events")


def replay(path, driver):
    proc = subprocess.run(
        [driver, "--replay", path, "--quiet"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        timeout=1800)
    return proc.returncode, proc.stdout.strip()


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("traces", nargs="+", help=".chaos trace files")
    ap.add_argument("--driver", metavar="PATH",
                    help="chaos_driver binary: also replay each trace and "
                         "verify the recorded digests end to end")
    ap.add_argument("-q", "--quiet", action="store_true",
                    help="only report failures")
    args = ap.parse_args()

    failed = 0
    for path in args.traces:
        t = parse_trace(path)
        if not t.errors:
            check_semantics(t)
            check_footer(t)
        if not t.errors and args.driver and t.result is not None:
            code, out = replay(path, args.driver)
            if code != 0:
                t.errors.append(f"replay failed (exit {code}): {out}")
        for w in t.warnings:
            print(f"{path}: warning: {w}", file=sys.stderr)
        if t.errors:
            failed += 1
            for e in t.errors:
                print(f"{path}: error: {e}", file=sys.stderr)
        elif not args.quiet:
            n = len(t.events)
            footer = "trace" if t.result is not None else "schedule"
            print(f"{path}: OK ({footer}, {n} events)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
