"""The load generator process: one fresh process per setup sample or run.

    python3 perfbench/gen.py '<json config>'

The config names the workload, the seed, the number of operations to
measure, whether to trace, the monotonic time at which the caller spawned
this process (setup time is counted from there) and the run directory
under which any data directory is made.

It sets up the workload, runs its warm-up operations, then drives the
seeded operation sequence in a closed loop: each operation is sent only
after the previous one completed.  Every answer is checked against the
model; a wrong answer counts as a failed operation.  Calibration slices
run between operations, and every reported time is scaled to the
reference speed (``speed.py``).  The last line of standard output is one
JSON report.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import threading
import time
import traceback
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from repro import Session  # noqa: E402
from repro.terms import from_arg  # noqa: E402

import speed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

KINDS = ("query", "lookup", "write", "notify")

def vm_hwm_mb(pid: str = "self") -> float:
    """Peak resident set size of a process, read from /proc."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def same_answers(rows, want: set) -> bool:
    """``rows`` of ``X(k, Y)`` hold each ``Y`` of ``want`` exactly once."""
    got = [row["Y"] for row in rows]
    return len(got) == len(want) and set(got) == want


class Runner:
    """One workload's system under test, its model and its operations."""

    warmup_ops = 0

    def __init__(self, cfg: dict) -> None:
        self.cfg = cfg
        self.seed = cfg["seed"]
        self.samples = defaultdict(list)
        self.failures = []
        self.answers = defaultdict(int)
        self.points = 0  # individual point reads inside lookup batches
        self.tracer = None
        self.pacer = speed.Pacer()
        #: (seconds, scale) of set-up work done in another process
        self.remote_setup = (0.0, 1.0)

    def fail(self, message: str) -> None:
        self.failures.append(message)

    # each workload implements setup(), ops(), execute(op) -> bool,
    # finish() -> bool, close() -> dict and counts()

    def settle(self) -> None:
        """Wait until deltas of writes already made have arrived, and
        start the measured part."""

    def notify_sample(self, began: float, seconds: float) -> None:
        self.samples["notify"].append((began, seconds * 1e3))

    def drive(self) -> dict:
        ops = self.ops()
        for _ in range(self.warmup_ops):
            self.execute(next(ops))
        self.settle()
        for kind in KINDS:
            self.samples[kind].clear()
        self.answers.clear()
        self.points = 0
        if self.cfg["trace"]:
            self.tracer = tracing.Tracer()
            self.install_tracer(self.tracer)
        done = failed = 0
        per_kind = defaultdict(int)
        #: (start, seconds) of each operation, calibration slices excluded
        spans = []
        self.pacer.tick()
        while done < self.cfg["ops"]:
            began = time.perf_counter()
            op = next(ops)
            if self.tracer is not None:
                self.tracer.begin_op(op[0])
            try:
                ok = self.execute(op)
            except Exception as exc:  # a failed operation, not a crash
                self.fail(f"{op!r}: {exc!r}")
                ok = False
            if self.tracer is not None:
                self.tracer.end_op()
            done += 1
            per_kind[op[0]] += 1
            failed += 0 if ok else 1
            spans.append((began, time.perf_counter() - began))
            self.pacer.tick()
        return {
            "ops": done,
            "raw_elapsed": sum(seconds for _, seconds in spans),
            "elapsed": sum(seconds * self.pacer.at(began)
                           for began, seconds in spans),
            "per_kind": dict(per_kind),
            "failed": failed,
            "slices": self.pacer.slices,
        }

    def scaled_samples(self) -> dict:
        """Each latency sample scaled to the reference speed at its start."""
        return {kind: [ms * self.pacer.at(began)
                       for began, ms in self.samples[kind]]
                for kind in KINDS}

    def timed(self, kind: str, call):
        began = time.perf_counter()
        result = call()
        self.samples[kind].append((began, (time.perf_counter() - began) * 1e3))
        return result


# ---------------------------------------------------------------------------
# serve: a server process, a request connection and a subscription
# ---------------------------------------------------------------------------


class ServeRunner(Runner):
    warmup_ops = workloads.SERVE["warmup_ops"]

    def setup(self) -> None:
        from repro.client import RemoteSession

        self.graph = workloads.serve_graph(self.seed)
        self.server = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "serve_proc.py"),
             str(self.seed), "1" if self.cfg["trace"] else "0"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        line = self.server.stdout.readline()
        if not line.startswith("READY "):
            raise RuntimeError(f"server did not start: {line!r}")
        _, port, busy, scale = line.split()
        port = int(port)
        self.remote_setup = (float(busy), float(scale))
        self.db = RemoteSession("127.0.0.1", port, batch_size=64)
        self.sub = self.db.subscribe(workloads.WATCHED_VIEW)
        #: (sign, sink) -> [write start, deltas still to arrive, all arrived]
        self.pending = {}
        self.lock = threading.Lock()
        self.stop = threading.Event()
        self.watcher = threading.Thread(target=self.watch, daemon=True)
        self.watcher.start()

    def watch(self) -> None:
        while not self.stop.is_set():
            kind, payload = self.sub.poll(timeout=0.5)
            now = time.perf_counter()
            if kind == "closed":
                return
            if kind != "deltas":
                continue
            with self.lock:
                for sign, values in payload:
                    write = self.pending.pop((sign, values[1]), None)
                    if write is not None:
                        write[1] -= 1
                        if write[1] == 0:
                            self.notify_sample(write[0], now - write[0])
                            write[2].set()

    def ops(self):
        return workloads.serve_ops(self.seed, self.graph)

    def install_tracer(self, tracer) -> None:
        tracing.install_client(tracer)

    def execute(self, op) -> bool:
        kind = op[0]
        if kind == "write":
            _, deleted, inserted = op
            write = [time.perf_counter(), 2, threading.Event()]
            with self.lock:
                self.pending[(-1, deleted[1])] = write
                self.pending[(1, inserted[1])] = write
            changed = self.timed("write", lambda: (
                self.db.delete("edge", *deleted), self.db.insert("edge", *inserted)
            ))
            # the next operation waits for the subscriber, so that no
            # operation shares the client or the server with delta delivery
            if not write[2].wait(10.0):
                self.fail(f"{op!r}: the subscriber never got its deltas")
                return False
            return changed == (True, True)
        if kind == "lookup":
            keys = op[1]
            rows = self.timed("lookup", lambda: [
                self.db.query(f"edge({k}, Y)").all() for k in keys
            ])
            self.points += len(keys)
            for key, answers in zip(keys, rows):
                self.answers["lookup"] += len(answers)
                if not same_answers(answers, self.graph.adjacency.get(key, set())):
                    self.fail(f"lookup edge({key}, Y) differs from the model")
                    return False
            return True
        k = op[1]
        rows = self.timed("query", lambda: self.db.query(f"path({k}, Y)").all())
        self.answers["query"] += len(rows)
        if not same_answers(rows, self.graph.reach(k)):
            self.fail(f"path({k}, Y): {len(rows)} answers differ from the model")
            return False
        return True

    def settle(self) -> None:
        self.drain()
        # the server's wrappers were installed at its start: clear what
        # they recorded during set-up and warm-up
        self.server.stdin.write("reset\n")
        self.server.stdin.flush()
        if self.server.stdout.readline().strip() != "RESET":
            raise RuntimeError("server did not reset its trace")

    def drain(self) -> None:
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            with self.lock:
                if not self.pending:
                    return
            time.sleep(0.01)

    def finish(self) -> bool:
        self.drain()
        self.stop.set()
        self.watcher.join(timeout=10.0)
        ok = True
        with self.lock:
            lost = len(self.pending)
        if lost:
            self.fail(f"{lost} writes never reached the subscriber")
            ok = False
        expected = {(0, y) for y in self.graph.reach(0)}
        if set(self.sub.view()) != expected:
            self.fail("subscribed view differs from the model")
            ok = False
        return ok

    def close(self) -> dict:
        rss = vm_hwm_mb(str(self.server.pid))
        if not self.stop.is_set():
            self.stop.set()
            self.watcher.join(timeout=10.0)
        self.sub.close()
        self.db.close()
        out, _ = self.server.communicate(timeout=60)
        report = json.loads(out.strip().splitlines()[-1])
        ok = not report["view_mismatches"]
        if not ok:
            self.fail(f"server views differ: {report['view_mismatches']}")
        return {"peak_rss_mb": rss, "server": report, "ok": ok,
                "counts": self.counts(report)}

    def setup_counts(self) -> dict:
        return self.counts(self.db.stats())

    def counts(self, report: dict) -> dict:
        """Work counts from the server's STATS or its final report."""
        return {
            "rows_loaded": len(self.graph.base_edges) + len(self.graph.present),
            "inferences": report["eval"]["inferences"],
            "facts_inserted": report["eval"]["facts_inserted"],
            "deltas_emitted": report["live"]["deltas_emitted"],
        }


# ---------------------------------------------------------------------------
# eval: a local session, no wire, no storage
# ---------------------------------------------------------------------------


class LocalRunner(Runner):
    """Shared by eval and ingest: the system is a Session in this process,
    and a local subscriber's callback stamps each delta it receives."""

    def watch(self, batch) -> None:
        now = time.perf_counter()
        for sign, tup in batch:
            self.delivered.append((sign, from_arg(tup.args[1]), now))

    def write(self, op, mutations, deltas) -> bool:
        """Apply ``mutations`` as one write; its notify time runs until
        the subscriber holds every expected ``(sign, value)`` delta."""
        self.delivered.clear()
        began = time.perf_counter()
        changed = [mutation() for mutation in mutations]
        self.samples["write"].append((began, (time.perf_counter() - began) * 1e3))
        arrived = {(sign, value): t for sign, value, t in self.delivered}
        if not all(changed) or not deltas <= set(arrived):
            self.fail(f"{op!r}: changed {changed}, deltas {sorted(arrived)}")
            return False
        self.notify_sample(began, max(arrived[d] for d in deltas) - began)
        return True

    def install_tracer(self, tracer) -> None:
        tracing.install_engine(tracer)
        tracer.counters = lambda: tracing.engine_counters(self.session)

    def close(self) -> dict:
        counts = self.counts()
        self.session.close()
        return {"peak_rss_mb": vm_hwm_mb(), "ok": True, "counts": counts}

    def setup_counts(self) -> dict:
        return self.counts()

    def base_counts(self) -> dict:
        return {
            "inferences": self.session.stats.inferences,
            "facts_inserted": self.session.stats.facts_inserted,
            "deltas_emitted": self.session.live.stats.deltas_emitted,
        }


class EvalRunner(LocalRunner):
    warmup_ops = workloads.EVAL["warmup_ops"]

    def setup(self) -> None:
        self.inputs = workloads.EvalInputs(self.seed)
        self.session = Session()
        program = self.inputs.program()
        self.rows = program.count(").")
        self.session.consult_string(program)
        self.delivered = []
        self.view = self.session.subscribe(workloads.WATCHED_VIEW, self.watch)

    def ops(self):
        return workloads.eval_ops(self.seed, self.inputs)

    def execute(self, op) -> bool:
        graph = self.inputs.graph
        session = self.session
        if op[0] == "write":
            _, deleted, inserted = op
            return self.write(op, [
                lambda: session.delete("edge", *deleted),
                lambda: session.insert("edge", *inserted),
            ], {(-1, deleted[1]), (1, inserted[1])})
        if op[0] == "lookup":
            keys = op[1]
            rows = self.timed("lookup", lambda: [
                session.query(f"edge({k}, Y)").all() for k in keys
            ])
            self.points += len(keys)
            for k, answers in zip(keys, rows):
                self.answers["lookup"] += len(answers)
                if {a["Y"] for a in answers} != graph.adjacency.get(k, set()):
                    self.fail(f"lookup edge({k}, Y) differs from the model")
                    return False
            return True
        _, shape, arg = op
        text = {
            "tc": f"path({arg}, Y)",
            "sg": f"sg({arg}, Y)",
            "fig3": f"s_p({arg}, Y, P, C)",
            "trail": f"trail({arg}, {self.inputs.hops}, P)",
        }[shape]
        answers = self.timed("query", lambda: session.query(text).all())
        self.answers["query"] += len(answers)
        if shape in ("tc", "sg"):
            got = [a["Y"] for a in answers]
            want = (graph.reach(arg) if shape == "tc"
                    else self.inputs.sg.same_generation(arg))
            ok = len(got) == len(want) and set(got) == want
        elif shape == "fig3":
            got = {a["Y"]: a["C"] for a in answers}
            ok = len(answers) == len(got) and got == self.inputs.wgraph.shortest(arg)
        else:
            ok = (len(answers) == 1
                  and answers[0]["P"] == list(range(arg, self.inputs.hops + 1)))
        if not ok:
            self.fail(f"{text}: answers differ from the model")
        return ok

    def finish(self) -> bool:
        expected = {(0, y) for y in self.inputs.graph.reach(0)}
        got = {tuple(from_arg(a) for a in t.args) for t in self.view.snapshot()}
        if got != expected:
            self.fail("live view differs from the model")
            return False
        return True

    def counts(self) -> dict:
        return {"rows_loaded": self.rows, **self.base_counts()}


# ---------------------------------------------------------------------------
# ingest: a local session on a fresh data directory
# ---------------------------------------------------------------------------


class IngestRunner(LocalRunner):
    warmup_ops = workloads.INGEST["warmup_ops"]

    def setup(self) -> None:
        spec = workloads.INGEST
        self.model = workloads.IngestModel(self.seed)
        self.directory = os.path.join(
            self.cfg["run_dir"], f"ingest-data-{os.getpid()}"
        )
        os.makedirs(self.directory)
        self.session = Session(
            data_directory=self.directory, buffer_capacity=spec["buffer_pages"]
        )
        session = self.session
        session.persistent_relation("item", 3).create_index([0])
        session.persistent_relation("tag", 2)
        session.consult_string(workloads.JOIN_MODULE)
        self.delivered = []
        session.subscribe("recent(R, K)", self.watch)
        for _ in range(spec["item_rows"]):
            row = self.model.new_item()
            session.insert("item", *row)
            self.model.add_item(row)
        for _ in range(spec["tag_rows"]):
            row = self.model.new_tag()
            session.insert("tag", *row)
            self.model.add_tag(row)
        self.rows = spec["item_rows"] + spec["tag_rows"]

    def ops(self):
        return workloads.ingest_ops(self.seed, self.model)

    def execute(self, op) -> bool:
        session, model = self.session, self.model
        if op[0] == "write":
            target = op[1]
            if target == "item":
                new, add, drop = model.new_item(), model.add_item, model.drop_item
            else:
                new, add, drop = model.new_tag(), model.add_tag, model.drop_tag
            old = drop()
            add(new)
            feed_key = new[0] if target == "item" else new[1]
            model.feed.append((target, feed_key))
            evicted = (
                model.feed.popleft()
                if len(model.feed) > workloads.INGEST["feed_window"] else None
            )
            mutations = [
                lambda: session.insert(target, *new),
                lambda: session.delete(target, *old),
                lambda: session.insert("recent", target, feed_key),
            ]
            if evicted is not None:
                mutations.append(lambda: session.delete("recent", *evicted))
            return self.write(op, mutations, {(1, feed_key)})
        if op[0] == "lookup":
            keys = op[1]
            rows = self.timed("lookup", lambda: [
                session.query(f"item({k}, O, P)").all() for k in keys
            ])
            self.points += len(keys)
            for k, answers in zip(keys, rows):
                self.answers["lookup"] += len(answers)
                want = model.owner_of.get(k)
                got = [(a["O"], a["P"]) for a in answers]
                if got != ([want] if want else []):
                    self.fail(f"lookup item({k}, O, P) differs from the model")
                    return False
            return True
        key = op[1]
        answers = self.timed(
            "query", lambda: session.query(f"owner_tags({key}, T)").all()
        )
        self.answers["query"] += len(answers)
        got = [a["T"] for a in answers]
        want = model.owner_tags(key)
        if len(got) != len(want) or set(got) != want:
            self.fail(f"owner_tags({key}, T) differs from the model")
            return False
        return True

    def finish(self) -> bool:
        """Both persistent relations hold exactly the model's live rows."""
        items = {tuple(a.tuple.args) for a in self.session.query("item(K, O, P)")}
        tags = {tuple(a.tuple.args) for a in self.session.query("tag(O, T)")}
        model = self.model
        want_items = {(k, o, p) for k, (o, p) in model.owner_of.items()}
        if ({tuple(from_arg(a) for a in row) for row in items} != want_items
                or {tuple(from_arg(a) for a in row) for row in tags}
                != set(model.tags)):
            self.fail("persistent relations differ from the model")
            return False
        return True

    def close(self) -> dict:
        self.session.storage_pool.flush_all()
        size = sum(
            os.path.getsize(os.path.join(self.directory, name))
            for name in os.listdir(self.directory)
        )
        return {**super().close(), "bytes_per_row": size / self.model.live_rows()}

    def counts(self) -> dict:
        return {
            "rows_loaded": self.rows,
            "pages_written": self.session.storage_pool.server.stats.page_writes,
            **self.base_counts(),
        }


RUNNERS = {"serve": ServeRunner, "eval": EvalRunner, "ingest": IngestRunner}


def main() -> int:
    cfg = json.loads(sys.argv[1])
    runner = RUNNERS[cfg["workload"]](cfg)
    runner.setup()
    setup = time.monotonic() - cfg["spawned"]
    # each process's part of the set-up is scaled by its own slices
    remote, remote_scale = runner.remote_setup
    out = {"setup_s": (setup - remote) * speed.setup_scale()
           + remote * remote_scale}
    out["setup_counts"] = runner.setup_counts()
    if cfg["mode"] == "setup":
        runner.close()
        out["failures"] = runner.failures
        print(json.dumps(out))
        return 0
    try:
        out.update(runner.drive())
        final_ok = runner.finish()
    except Exception:
        traceback.print_exc()
        runner.fail("the run stopped on an error")
        runner.samples.clear()
        out.update({"ops": 0, "elapsed": 0.0, "raw_elapsed": 0.0,
                    "per_kind": {}, "failed": 0, "slices": runner.pacer.slices})
        final_ok = False
    if runner.tracer is not None:
        out["trace"] = runner.tracer.totals()
    closing = runner.close()
    # the final checks (views and stored relations) are one operation
    out["attempted"] = out["ops"] + 1
    out["failed"] += 0 if final_ok and closing["ok"] else 1
    out["counts"] = closing["counts"]
    out["peak_rss_mb"] = closing["peak_rss_mb"]
    out["server"] = closing.get("server")
    out["bytes_per_row"] = closing.get("bytes_per_row", 0.0)
    out["samples"] = runner.scaled_samples()
    out["answers"] = dict(runner.answers)
    out["points"] = runner.points
    out["failures"] = runner.failures[:20]
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
