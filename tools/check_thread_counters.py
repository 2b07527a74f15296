#!/usr/bin/env python3
"""Check that search counters and plans do not depend on the thread count.

Usage: check_thread_counters.py ONE MANY

ONE and MANY are `bench_paper pruning --json` documents (tce-bench/1)
of the same build, run at two thread counts.  The search promises the
same counters and the same plan at every thread count
(docs/ALGORITHM.md, "Parallel search"), so:

* both documents list the same scenarios, in the same order, and at
  least one;
* every row of both carries each field in COUNTERS and PLAN;
* each of them is equal in the two rows of a scenario: the search
  counters, the largest frontier at any node (`max_per_node`) and the
  plan's communication seconds (`comm_s`, compared exactly).

Wall times are never compared.  Exit 0 when the documents agree; 1
after listing every difference.  CI's bench-json job runs it on the
1- and 8-thread pruning runs.
"""

import json
import sys

COUNTERS = ("candidates", "infeasible", "dominated", "bounded", "kept")
PLAN = ("max_per_node", "comm_s")


def compare(one, many):
    """Returns the differences between two pruning documents."""
    rows_one = one.get("rows", [])
    rows_many = many.get("rows", [])
    names = [r.get("scenario") for r in rows_one]
    if not rows_one:
        return ["no scenario rows"]
    if names != [r.get("scenario") for r in rows_many]:
        return ["the scenario lists differ"]
    problems = []
    for a, b in zip(rows_one, rows_many):
        for key in COUNTERS + PLAN:
            if key not in a or key not in b:
                problems.append(f"{a['scenario']}: no {key}")
            elif a[key] != b[key]:
                problems.append(
                    f"{a['scenario']}: {key} {a[key]} at threads="
                    f"{a.get('threads')} but {b[key]} at threads="
                    f"{b.get('threads')}")
    return problems


def main(argv):
    if len(argv) != 3:
        sys.exit(__doc__.strip().splitlines()[2])
    docs = []
    for path in argv[1:]:
        with open(path) as f:
            docs.append(json.load(f))
    problems = compare(*docs)
    for p in problems:
        print(f"error: {p}", file=sys.stderr)
    if problems:
        return 1
    print(f"{argv[1]} and {argv[2]}: {len(docs[0]['rows'])} scenarios, "
          "same search counters and plans")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
