"""The server process of the ``serve`` workload.

    python3 perfbench/serve_proc.py SEED TRACE

Builds a default in-memory Session holding the seeded graph and the TC
module, registers the server-side live views with ``Session.subscribe``,
serves it with ``CoralServer`` on an ephemeral port and prints
``READY <port> <set-up seconds> <speed scale>``: the generator scales the
part of its set-up time this process spent by this process's own
calibration slices (``speed.py``).  Each ``reset`` line on standard input
clears the trace totals (the generator sends one after its warm-up) and is
answered with ``RESET``.  When standard input closes, the server stops,
checks every server-side view against the model of the final graph and
prints one JSON report line: evaluation and live counters, view mismatches
and, when TRACE is 1, the per-layer totals of the server-side wrappers.
"""

from __future__ import annotations

import time

STARTED = time.monotonic()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from repro import Session  # noqa: E402
from repro.server import CoralServer  # noqa: E402
from repro.terms import from_arg  # noqa: E402

import speed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def view_model(goal: str, adjacency, graph) -> set:
    """The answer set a server-side view must hold, from the model."""
    name, arg = goal.split("(")[0], goal.split("(")[1].split(",")[0]
    if name == "path":
        return {(int(arg), y) for y in graph.reach(int(arg))}
    return {
        (a, b) for a, targets in adjacency.items() for b in targets
        if arg == "X" or a == int(arg)
    }


def main() -> int:
    seed, trace = int(sys.argv[1]), sys.argv[2] == "1"
    graph = workloads.serve_graph(seed)
    session = Session()
    session.consult_string(workloads.serve_program(graph))
    deltas = {"count": 0}

    def on_deltas(batch) -> None:
        deltas["count"] += len(batch)

    views = {
        goal: session.subscribe(goal, on_deltas)
        for goal in workloads.SERVER_VIEWS
    }
    tracer = None
    if trace:
        tracer = tracing.Tracer()
        tracer.counters = lambda: tracing.engine_counters(session)
        tracing.install_engine(tracer)
        tracing.install_server(tracer)
    server = CoralServer(session, port=0, io_timeout=None, idle_timeout=None)
    server.start()
    busy = time.monotonic() - STARTED
    print(f"READY {server.address[1]} {busy} {speed.setup_scale()}", flush=True)
    for line in sys.stdin:  # until the generator closes our stdin
        if line.strip() == "reset" and tracer is not None:
            tracer.reset()
        print("RESET", flush=True)
    server.shutdown()

    # the final graph, read back from the session, is the model's input
    adjacency = {}
    for answer in session.query("edge(X, Y)"):
        adjacency.setdefault(answer["X"], set()).add(answer["Y"])
    graph.adjacency = adjacency
    mismatched = sorted(
        goal for goal, view in views.items()
        if {tuple(from_arg(a) for a in t.args) for t in view.snapshot()}
        != view_model(goal, adjacency, graph)
    )
    report = {
        "eval": session.stats.snapshot(),
        "live": session.live.snapshot(),
        "view_deltas": deltas["count"],
        "view_mismatches": mismatched,
    }
    if tracer is not None:
        report["trace"] = tracer.totals()
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
