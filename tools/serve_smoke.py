#!/usr/bin/env python3
"""Smoke-test a running planner daemon over its Unix-domain socket.

Usage: serve_smoke.py SOCKET

Sends one cold plan request and an alpha-renamed copy of it, scrapes
/metrics off the same socket and shuts the daemon down
(docs/SERVING.md).  The renamed request must hit the cache under the
cold one's key and be answered in its own names, and the scrape must
count one hit and one miss.  Exit 0 when every check passes; 1 with a
message on the first failure.  CI's serve-smoke job runs it against
`tcemin serve --socket`.
"""

import json
import socket
import sys

SCHEMA = "tce-serve/1"
PROGRAM = ("index a, b = 480\nindex i = 32\n"
           "T[a,b] = sum[i] X[a,i] * Y[i,b]\n")
RENAMED = ("index p, q = 480\nindex r = 32\n"
           "T2[p,q] = sum[r] U[p,r] * V[r,q]\n")


def fail(msg):
    sys.exit(f"serve smoke: {msg}")


def ask_raw(path, payload):
    s = socket.socket(socket.AF_UNIX)
    s.connect(path)
    s.sendall(payload.encode())
    s.shutdown(socket.SHUT_WR)
    buf = b""
    while chunk := s.recv(65536):
        buf += chunk
    s.close()
    return buf.decode()


def ask(path, doc):
    return json.loads(ask_raw(path, json.dumps(doc) + "\n"))


def check_exchange(cold, hot, metrics):
    """Checks the replies to the cold and renamed requests and the
    /metrics scrape taken after them."""
    if not (cold.get("ok") and cold.get("cache") == "miss"):
        fail(f"cold request did not miss: {cold}")
    if not (hot.get("ok") and hot.get("cache") == "hit"):
        fail(f"renamed request did not hit: {hot}")
    if cold.get("key") != hot.get("key"):
        fail(f"keys differ: {cold.get('key')!r} vs {hot.get('key')!r}")
    if '"T2"' not in json.dumps(hot.get("plan")):
        fail("the hit's plan is not in the request's names")
    for line in ("tce_serve_cache_hit_total 1",
                 "tce_serve_cache_miss_total 1"):
        if line not in metrics:
            fail(f"/metrics lacks {line!r}:\n{metrics}")


def main(argv):
    if len(argv) != 2:
        sys.exit(__doc__.strip().split("\n")[2])
    path = argv[1]
    req = {"schema": SCHEMA, "op": "plan", "procs": 16}
    cold = ask(path, req | {"id": "q1", "program": PROGRAM})
    hot = ask(path, req | {"id": "q2", "program": RENAMED})
    metrics = ask_raw(path, "GET /metrics HTTP/1.0\r\n\r\n")
    check_exchange(cold, hot, metrics)
    ask(path, {"schema": SCHEMA, "op": "shutdown"})
    print("socket daemon: ok (alpha-renamed hit, /metrics scrape)")


if __name__ == "__main__":
    main(sys.argv)
