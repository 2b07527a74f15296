#!/usr/bin/env python3
"""Validate metrics/observability output files.

Usage: validate_metrics.py [--threads N] FILE [FILE...]

Each file's format is detected from its content:

* a JSON document with schema "tce-metrics/1" -> metrics snapshot
* a JSON document with schema "tce-bench/1"   -> bench doc (its embedded
  "metrics" object is validated the same way as a snapshot's)
* a JSON document with schema "tce-lint/1"    -> `tcemin lint --json`
* a JSON document with "traceEvents"          -> Chrome trace-event file
  (`tcemin ... --trace`, TCE_TRACE)
* one JSON object per line, schema "tce-log/1" -> structured event log
* anything else -> Prometheus text exposition

Checks (docs/FORMATS.md, docs/OBSERVABILITY.md):

* Prometheus: every sample is preceded by # HELP and # TYPE lines for
  its family; counters end in _total; histogram bucket series are
  cumulative and monotone, the +Inf bucket equals _count, and _sum and
  _count are present.
* tce-metrics/1: counters/gauges are numbers; histogram objects carry
  count/sum/min/max/p50/p90/p99 and a sparse bucket list whose counts
  sum exactly to `count` (the registry's exact-merge guarantee), with
  min <= p50 <= p90 <= p99 <= max... within bucket rounding -- the
  quantiles are clamped into [min, max], so that range is exact.
* tce-bench/1: a non-empty `bench` name and rows of non-empty objects;
  rows that carry the search latency have 0 <= p50_ms <= p99_ms, and
  then the metrics show a search ran (opt.candidates, opt.kept > 0).
  The embedded metrics are checked as a tce-metrics/1 snapshot's.
  With --threads N (the planner thread record), every row must carry
  threads == N and a non-negative opt_wall_ms; the summed planner time
  is printed.
* tce-lint/1: a boolean `ok` that is false exactly when an
  error-severity diagnostic exists, a positive rules_checked,
  diagnostics with a known severity, a string node and message and a
  "family.rule" id, a mem_certificate only with rule "mem.infeasible"
  and a matching diagnostic, and comm certificates with rule
  "comm.lb-certificate" and non-negative integer comm_lb_words.
* tce-log/1: every line parses, has the schema marker, a known level,
  a positive integer ts_us, and non-empty component/event.
* trace: the "ms" display unit, integer pid/tid on every event, no
  negative ts or dur, and B/E spans balanced on every (pid, tid) lane
  (no E before its B, no B left open).

Exit 0 when every file validates; 1 with a message on the first
failure.  Used by CI's bench-json job; handy locally after
`tcemin plan --metrics out.prom ...` or `--trace out.json`.
"""

import json
import math
import re
import sys

LEVELS = ("debug", "info", "warn", "error")
SEVERITIES = ("error", "warning", "info")
RULE_RE = re.compile(r"^[a-z]+\.[a-z-]+$")


def fail(path, msg):
    sys.exit(f"{path}: {msg}")


def check_histogram(path, name, h):
    for key in ("count", "sum", "min", "max", "p50", "p90", "p99",
                "buckets"):
        if key not in h:
            fail(path, f"histogram {name!r} missing {key!r}: {h}")
    count = h["count"]
    if not (isinstance(count, int) and count > 0):
        fail(path, f"histogram {name!r} has bad count {count!r}")
    bucket_total = 0
    last_index = -1
    for entry in h["buckets"]:
        if not (isinstance(entry, list) and len(entry) == 2):
            fail(path, f"histogram {name!r} bad bucket entry {entry!r}")
        index, n = entry
        if not (isinstance(index, int) and 0 <= index <= 63):
            fail(path, f"histogram {name!r} bucket index {index!r}")
        if index <= last_index:
            fail(path, f"histogram {name!r} buckets not sorted")
        last_index = index
        if not (isinstance(n, int) and n > 0):
            fail(path, f"histogram {name!r} bucket count {n!r}")
        bucket_total += n
    if bucket_total != count:
        fail(path, f"histogram {name!r}: count {count} != "
                   f"sum of bucket counts {bucket_total}")
    if not (h["min"] <= h["p50"] <= h["p90"] <= h["p99"] <= h["max"]
            or math.isclose(h["min"], h["max"])):
        fail(path, f"histogram {name!r} quantiles out of order: {h}")


def check_metrics_object(path, metrics):
    if not isinstance(metrics, dict) or not metrics:
        fail(path, "empty metrics object")
    histograms = 0
    for name, value in metrics.items():
        if isinstance(value, dict):
            check_histogram(path, name, value)
            histograms += 1
        elif not isinstance(value, (int, float)):
            fail(path, f"metric {name!r} has non-numeric value {value!r}")
    return histograms


def check_metrics_json(path, doc):
    histograms = check_metrics_object(path, doc["metrics"])
    print(f"{path}: tce-metrics/1 ok ({len(doc['metrics'])} metrics, "
          f"{histograms} histograms)")


def check_bench_json(path, doc, threads=None):
    if not (isinstance(doc.get("bench"), str) and doc["bench"]):
        fail(path, f"bad bench name {doc.get('bench')!r}")
    if not (isinstance(doc.get("rows"), list) and doc["rows"]):
        fail(path, "bench document has no rows")
    planner = False
    for i, row in enumerate(doc["rows"]):
        if not (isinstance(row, dict) and row):
            fail(path, f"row {i} is not a non-empty object")
        if "p50_ms" in row or "p99_ms" in row:
            planner = True
            if not 0 <= row.get("p50_ms", -1) <= row.get("p99_ms", -1):
                fail(path, f"row {i}: bad p50_ms/p99_ms {row.get('p50_ms')!r}"
                           f"/{row.get('p99_ms')!r}")
    histograms = check_metrics_object(path, doc["metrics"])
    if planner:
        for name in ("opt.candidates", "opt.kept"):
            if not doc["metrics"].get(name, 0) > 0:
                fail(path, f"planner rows but {name} is not positive")
    print(f"{path}: tce-bench/1 metrics ok ({len(doc['rows'])} rows, "
          f"{len(doc['metrics'])} metrics, {histograms} histograms)")
    if threads is not None:
        check_thread_record(path, doc["rows"], threads)


def check_thread_record(path, rows, threads):
    for i, row in enumerate(rows):
        if row.get("threads") != threads:
            fail(path, f"row {i}: threads {row.get('threads')!r}, "
                       f"want {threads}")
        wall = row.get("opt_wall_ms")
        if not (isinstance(wall, (int, float)) and wall >= 0):
            fail(path, f"row {i}: bad opt_wall_ms {wall!r}")
    total = sum(row["opt_wall_ms"] for row in rows)
    print(f"{path}: --threads {threads}: {total:.1f} ms planner time")


def check_lint_json(path, doc):
    if not isinstance(doc.get("ok"), bool):
        fail(path, f"ok is not a boolean: {doc.get('ok')!r}")
    checked = doc.get("rules_checked")
    if not (isinstance(checked, int) and checked > 0):
        fail(path, f"bad rules_checked {checked!r}")
    diags = doc.get("diagnostics")
    if not isinstance(diags, list):
        fail(path, "diagnostics is not a list")
    for i, d in enumerate(diags):
        if d.get("severity") not in SEVERITIES:
            fail(path, f"diagnostic {i}: severity {d.get('severity')!r}")
        if not RULE_RE.match(str(d.get("rule"))):
            fail(path, f"diagnostic {i}: rule id {d.get('rule')!r}")
        for key in ("node", "message"):
            if not isinstance(d.get(key), str):
                fail(path, f"diagnostic {i}: {key} {d.get(key)!r}")
    errors = any(d["severity"] == "error" for d in diags)
    if doc["ok"] == errors:
        fail(path, f"ok is {doc['ok']} with"
                   f"{'' if errors else ' no'} error diagnostics")
    rules = {d["rule"] for d in diags}
    if "mem_certificate" in doc:
        cert = doc["mem_certificate"]
        if cert.get("rule") != "mem.infeasible":
            fail(path, f"mem_certificate rule {cert.get('rule')!r}")
        if "mem.infeasible" not in rules:
            fail(path, "mem_certificate without a mem.infeasible "
                       "diagnostic")
    bounds = []
    for i, cert in enumerate(doc.get("comm_certificates", [])):
        if cert.get("rule") != "comm.lb-certificate":
            fail(path, f"comm certificate {i}: rule {cert.get('rule')!r}")
        words = cert.get("comm_lb_words")
        if not (isinstance(words, int) and words >= 0):
            fail(path, f"comm certificate {i}: comm_lb_words {words!r}")
        bounds.append(words)
    print(f"{path}: tce-lint/1 ok (ok={str(doc['ok']).lower()}, "
          f"{len(diags)} diagnostics, comm_lb_words {bounds})")


def check_log_lines(path, lines):
    n = 0
    for i, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            event = json.loads(line)
        except ValueError as e:
            fail(path, f"line {i}: not JSON ({e})")
        if event.get("schema") != "tce-log/1":
            fail(path, f"line {i}: schema {event.get('schema')!r}")
        if event.get("level") not in LEVELS:
            fail(path, f"line {i}: level {event.get('level')!r}")
        ts = event.get("ts_us")
        if not (isinstance(ts, int) and ts > 0):
            fail(path, f"line {i}: ts_us {ts!r}")
        for key in ("component", "event"):
            if not (isinstance(event.get(key), str) and event[key]):
                fail(path, f"line {i}: bad {key} {event.get(key)!r}")
        n += 1
    if n == 0:
        fail(path, "no log events")
    print(f"{path}: tce-log/1 ok ({n} events)")


def check_trace(path, doc):
    if doc.get("displayTimeUnit") != "ms":
        fail(path, f"displayTimeUnit {doc.get('displayTimeUnit')!r}, "
                   f"want 'ms'")
    events = doc["traceEvents"]
    if not (isinstance(events, list) and events):
        fail(path, "no trace events")
    open_spans = {}  # (pid, tid) -> B events not yet ended
    for i, event in enumerate(events):
        for key in ("pid", "tid"):
            if not isinstance(event.get(key), int):
                fail(path, f"event {i} has no integer {key}: {event}")
        for key in ("ts", "dur"):
            value = event.get(key, 0)
            if not (isinstance(value, (int, float)) and value >= 0):
                fail(path, f"event {i} has bad {key} {value!r}: {event}")
        lane = (event["pid"], event["tid"])
        if event.get("ph") == "B":
            open_spans[lane] = open_spans.get(lane, 0) + 1
        elif event.get("ph") == "E":
            if open_spans.get(lane, 0) == 0:
                fail(path, f"event {i} ends no open span on pid {lane[0]} "
                           f"tid {lane[1]}")
            open_spans[lane] -= 1
    unended = {lane: n for lane, n in open_spans.items() if n}
    if unended:
        fail(path, f"unbalanced spans, B events never ended: {unended}")
    print(f"{path}: trace ok ({len(events)} events)")


SAMPLE_RE = re.compile(
    r'^(?P<family>[A-Za-z_:][A-Za-z0-9_:]*?)'
    r'(?P<suffix>_total|_bucket|_sum|_count)?'
    r'(?:\{(?P<labels>[^}]*)\})?\s+(?P<value>\S+)$')


def check_prometheus(path, text):
    helped, typed = {}, {}
    buckets = {}     # family -> list of (le, cumulative count)
    sums, counts = {}, {}
    samples = 0
    for i, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        if line.startswith("# HELP "):
            name = line.split()[2]
            helped[name] = True
            continue
        if line.startswith("# TYPE "):
            _, _, name, kind = line.split()
            typed[name] = kind
            continue
        if line.startswith("#"):
            continue
        m = SAMPLE_RE.match(line)
        if not m:
            fail(path, f"line {i}: unparseable sample {line!r}")
        family = m.group("family")
        suffix = m.group("suffix") or ""
        try:
            value = float(m.group("value"))
        except ValueError:
            fail(path, f"line {i}: bad value in {line!r}")
        samples += 1
        if suffix == "_bucket":
            labels = m.group("labels") or ""
            lm = re.match(r'^le="([^"]+)"$', labels)
            if not lm:
                fail(path, f"line {i}: bucket without le label: {line!r}")
            le = math.inf if lm.group(1) == "+Inf" else float(lm.group(1))
            buckets.setdefault(family, []).append((le, value))
            family_name = family + "_bucket"
        elif suffix == "_sum":
            sums[family] = value
            family_name = family
        elif suffix == "_count":
            counts[family] = value
            family_name = family
        elif suffix == "_total":
            family_name = family + "_total"
            if typed.get(family_name) != "counter":
                fail(path, f"line {i}: {family_name} not TYPEd counter")
        else:
            family_name = family
        # Histogram children are announced under the bare family name.
        base = family if suffix in ("_bucket", "_sum", "_count") \
            else family_name
        if base not in helped or base not in typed:
            fail(path, f"line {i}: {base} lacks # HELP/# TYPE")
    for family, series in buckets.items():
        if typed.get(family) != "histogram":
            fail(path, f"{family} has buckets but TYPE "
                       f"{typed.get(family)!r}")
        les = [le for le, _ in series]
        vals = [v for _, v in series]
        if les != sorted(les) or les[-1] != math.inf:
            fail(path, f"{family} bucket bounds not ascending to +Inf")
        if vals != sorted(vals):
            fail(path, f"{family} bucket counts not cumulative")
        if family not in sums or family not in counts:
            fail(path, f"{family} missing _sum or _count")
        if vals[-1] != counts[family]:
            fail(path, f"{family}: +Inf bucket {vals[-1]} != "
                       f"_count {counts[family]}")
    if samples == 0:
        fail(path, "no samples")
    print(f"{path}: prometheus ok ({samples} samples, "
          f"{len(buckets)} histograms)")


def validate(path, threads=None):
    with open(path) as f:
        text = f.read()
    try:
        doc = json.loads(text)
    except ValueError:
        doc = None
    if isinstance(doc, dict):
        if "traceEvents" in doc:
            return check_trace(path, doc)
        schema = doc.get("schema")
        if schema == "tce-metrics/1":
            return check_metrics_json(path, doc)
        if schema == "tce-bench/1":
            return check_bench_json(path, doc, threads)
        if schema == "tce-lint/1":
            return check_lint_json(path, doc)
        if schema == "tce-log/1":  # a one-event log file
            return check_log_lines(path, text.splitlines())
        fail(path, f"unrecognized JSON schema {schema!r}")
    first = text.lstrip().split("\n", 1)[0] if text.strip() else ""
    if first.startswith("{") and '"tce-log/1"' in first:
        return check_log_lines(path, text.splitlines())
    return check_prometheus(path, text)


def main(argv):
    args = argv[1:]
    threads = None
    if args[:1] == ["--threads"] and len(args) > 1:
        try:
            threads = int(args[1])
        except ValueError:
            sys.exit(f"--threads needs a number, got {args[1]!r}")
        args = args[2:]
    if not args:
        sys.exit(__doc__.strip().split("\n")[2])
    for path in args:
        validate(path, threads)


if __name__ == "__main__":
    main(sys.argv)
