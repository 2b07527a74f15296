#!/usr/bin/env python3
"""Compare a fresh tce-bench/1 document against its pinned baseline.

Usage: bench_compare.py BASELINE CURRENT

Both files must be tce-bench/1 documents with the same `bench` name,
which selects the spec in SPECS.  For that bench:

* CURRENT has as many compared rows as BASELINE, and BASELINE has at
  least one (a spec may compare only the rows with a given `name`);
* each baseline row carries every pinned field, and each current row
  every field of its baseline row;
* each pinned field equals the baseline's exactly: these are the
  deterministic plan, sweep, search and cache fields;
* each floor holds on the current row: `value >= floor`.

Wall times drift with hardware and are never compared.  Exit 0 when the
document matches; 1 after listing every mismatch.  CI runs it against
the checked-in BENCH_table1.json, BENCH_table2.json, BENCH_micro.json
and BENCH_serve.json, and on `bench_paper pruning` run at 1 and 8
threads: the search promises the same counters and plans at every
thread count (docs/ALGORITHM.md, "Parallel search").
"""

import json
import sys
from typing import NamedTuple


class Spec(NamedTuple):
    rows: str | None  # compare only rows with this `name`; None = all
    pinned: tuple
    floors: tuple  # (value field, floor field) pairs


PLAN = Spec(None, ("procs", "mem_limit_bytes", "comm_s", "runtime_s",
                   "mem_per_node_bytes", "buffer_per_node_bytes",
                   "verifier_rules_checked", "comm_lb_words",
                   "achieved_comm_words", "comm_gap_ratio"), ())

SPECS = {
    "table1": PLAN,
    "table2": PLAN,
    # The kernel sweep itself is pinned; only its timings may move.
    "micro": Spec("gemm_kernels", ("n", "flops", "min_speedup", "threads"),
                  (("speedup", "min_speedup"),)),
    "serve": Spec(None, ("scenario", "queries", "unique", "procs",
                         "cache_capacity", "hits", "misses", "hit_rate",
                         "min_speedup"),
                  (("speedup_p50", "min_speedup"),)),
    # The search counters, the largest frontier at any node and the
    # plan's cost, scenario by scenario in the same order.
    "pruning": Spec(None, ("scenario", "candidates", "infeasible",
                           "dominated", "bounded", "kept", "max_per_node",
                           "comm_s"), ()),
}


def compare(base, cur):
    """Returns the list of mismatches between two tce-bench/1 documents."""
    for doc, side in ((base, "baseline"), (cur, "current")):
        if doc.get("schema") != "tce-bench/1":
            return [f"{side} schema {doc.get('schema')!r} != 'tce-bench/1'"]
    name = base.get("bench")
    if cur.get("bench") != name:
        return [f"bench {cur.get('bench')!r} != baseline {name!r}"]
    spec = SPECS.get(name)
    if spec is None:
        return [f"no comparison spec for bench {name!r}"]

    def select(doc):
        return [r for r in doc["rows"]
                if spec.rows is None or r.get("name") == spec.rows]

    base_rows, cur_rows = select(base), select(cur)
    if not base_rows or len(cur_rows) != len(base_rows):
        return [f"{name}: baseline {len(base_rows)} rows vs current "
                f"{len(cur_rows)}"]
    errors = []
    for i, (b, c) in enumerate(zip(base_rows, cur_rows)):
        errors += [f"{name} baseline row {i}: {key} missing"
                   for key in spec.pinned if key not in b]
        errors += [f"{name} row {i}: {key} missing"
                   for key in b if key not in c]
        errors += [f"{name} row {i} {key}: baseline {b[key]!r} vs current "
                   f"{c[key]!r}"
                   for key in spec.pinned
                   if key in b and key in c and c[key] != b[key]]
        for value, floor in spec.floors:
            if value in c and floor in c and not c[value] >= c[floor]:
                errors.append(f"{name} row {i}: {value} {c[value]!r} below "
                              f"{floor} {c[floor]!r}")
    return errors


def main(argv):
    if len(argv) != 3:
        sys.exit(__doc__.strip().split("\n")[2])
    with open(argv[1]) as f:
        base = json.load(f)
    with open(argv[2]) as f:
        cur = json.load(f)
    errors = compare(base, cur)
    for e in errors:
        print(f"{argv[2]}: {e}", file=sys.stderr)
    if errors:
        sys.exit(1)
    spec = SPECS[base["bench"]]
    print(f"{argv[2]}: matches {argv[1]} ({len(spec.pinned)} pinned "
          f"fields, {len(spec.floors)} floors)")


if __name__ == "__main__":
    main(sys.argv)
