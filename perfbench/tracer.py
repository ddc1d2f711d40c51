"""Per-layer timing from outside the program.

The traced run wraps public functions of ``repro`` modules (see
``install_engine``, ``install_client`` and ``install_server``) so that each
call records a span on a per-thread stack.  A span's *self time* is its
duration minus the time its child spans cover; a layer's time is the sum
of the self times of its spans, so nested calls of one layer are never
counted twice and time spent in another traced layer is charged there.

Spans and counts are charged to the operation kind that is current on the
calling thread (``query``, ``lookup``, ``write``; ``other`` outside any
operation), which the load generator sets around each operation and the
server sets from the request frame it just read.
"""

from __future__ import annotations

import inspect
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Optional

OTHER = "other"


class _Accumulator:
    __slots__ = ("self_time", "counts", "stack", "kind", "base")

    def __init__(self) -> None:
        self.self_time: Dict[tuple, float] = defaultdict(float)
        self.counts: Dict[tuple, int] = defaultdict(int)
        #: open spans: [layer, start, time covered by finished children]
        self.stack: list = []
        self.kind = OTHER
        #: program counters at the start of the current operation
        self.base: Optional[Dict[str, int]] = None


class Tracer:
    """Span stacks and totals, one accumulator per thread, merged on read.

    ``clock`` is injectable so the self-time arithmetic can be checked on
    synthetic spans."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        #: returns the program's own counters; each operation is charged
        #: the difference between its end and its start
        self.counters: Optional[Callable[[], Dict[str, int]]] = None
        self._local = threading.local()
        self._accumulators: list = []

    def _acc(self) -> _Accumulator:
        acc = getattr(self._local, "acc", None)
        if acc is None:
            acc = self._local.acc = _Accumulator()
            self._accumulators.append(acc)
        return acc

    # -- operation scope -------------------------------------------------

    def set_kind(self, kind: Optional[str]) -> None:
        self._acc().kind = kind or OTHER

    def begin_op(self, kind: str) -> None:
        acc = self._acc()
        acc.kind = kind
        if self.counters is not None:
            acc.base = self.counters()

    def end_op(self) -> None:
        acc = self._acc()
        if acc.base is not None:
            for name, value in self.counters().items():
                acc.counts[(name, acc.kind)] += value - acc.base.get(name, 0)
            acc.base = None
        acc.kind = OTHER

    @property
    def kind(self) -> str:
        return self._acc().kind

    # -- spans and counts -------------------------------------------------

    def enter(self, layer: str) -> None:
        self._acc().stack.append([layer, self.clock(), 0.0])

    def exit(self) -> None:
        acc = self._acc()
        layer, started, covered = acc.stack.pop()
        duration = self.clock() - started
        key = (layer, acc.kind)
        acc.self_time[key] += duration - covered
        if acc.stack:
            acc.stack[-1][2] += duration

    def add_time(self, layer: str, seconds: float, kind: str) -> None:
        """Charge time measured elsewhere (a server's service time)."""
        self._acc().self_time[(layer, kind)] += seconds

    def count(self, name: str, amount: int = 1) -> None:
        acc = self._acc()
        acc.counts[(name, acc.kind)] += amount

    def reset(self) -> None:
        """Forget the totals so far; open spans and operations go on."""
        for acc in list(self._accumulators):
            acc.self_time.clear()
            acc.counts.clear()

    # -- reading -----------------------------------------------------------

    def totals(self) -> Dict[str, Dict[str, Dict[str, float]]]:
        """{"ms": {layer: {kind: self ms}}, "counts": {name: {kind: n}}}"""
        merged: Dict[str, Dict[str, Dict[str, float]]] = {"ms": {}, "counts": {}}
        for acc in list(self._accumulators):
            for field, source, scale in (
                ("ms", acc.self_time, 1e3),
                ("counts", acc.counts, 1),
            ):
                for (name, kind), value in list(source.items()):
                    slot = merged[field].setdefault(name, {})
                    slot[kind] = slot.get(kind, 0) + value * scale
        return merged

    # -- wrapping -----------------------------------------------------------

    def span_wrapper(self, layer: str, fn: Callable) -> Callable:
        """``fn`` with every call (every resume, for a generator function)
        recorded as a span of ``layer``."""
        tracer = self
        if inspect.isgeneratorfunction(fn):
            def traced_generator(*args, **kwargs):
                inner = fn(*args, **kwargs)
                while True:
                    tracer.enter(layer)
                    try:
                        item = next(inner)
                    except StopIteration as stop:
                        return stop.value
                    finally:
                        tracer.exit()
                    yield item

            return traced_generator

        def traced(*args, **kwargs):
            tracer.enter(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.exit()

        return traced

    def count_wrapper(self, name: str, fn: Callable) -> Callable:
        tracer = self

        def counted(*args, **kwargs):
            tracer.count(name)
            return fn(*args, **kwargs)

        return counted

    def scan_wrapper(self, fn: Callable) -> Callable:
        """Count scans opened on a stored relation and the rows they
        hand to the join (rows examined)."""
        tracer = self

        def scan(*args, **kwargs):
            cursor = fn(*args, **kwargs)
            tracer.count("relations.scans")
            pull = cursor.get_next

            def get_next():
                row = pull()
                if row is not None:
                    tracer.count("relations.rows_examined")
                return row

            cursor.get_next = get_next
            return cursor

        return scan


def engine_counters(session) -> Dict[str, int]:
    """The program's own work counters: evaluation, live views, storage."""
    stats = session.stats
    counters = {
        "eval.inferences": stats.inferences,
        "eval.facts_inserted": stats.facts_inserted,
        "eval.iterations": stats.iterations,
    }
    if session.live is not None:
        live = session.live.stats
        counters["live.deltas"] = live.deltas_emitted
        counters["live.rebuilds"] = live.rebuilds
    if session.buffer_stats() is not None:
        pool = session.storage_pool
        counters["storage.buffer_hits"] = pool.stats.hits
        counters["storage.buffer_misses"] = pool.stats.misses
        counters["storage.page_reads"] = pool.server.stats.page_reads
        counters["storage.page_writes"] = pool.server.stats.page_writes
        if pool.btree_stats is not None:
            counters["storage.btree_node_reads"] = pool.btree_stats.node_reads
    return counters


def patch_function(module, name: str, wrap: Callable[[Callable], Callable]) -> None:
    """Replace ``module.name`` and every other reference to the same
    function object held by a loaded ``repro`` module (``from x import f``
    copies the reference into the importer)."""
    original = getattr(module, name)
    wrapped = wrap(original)
    for loaded in list(sys.modules.values()):
        if loaded is None or not getattr(loaded, "__name__", "").startswith("repro"):
            continue
        for attr, value in list(vars(loaded).items()):
            if value is original:
                setattr(loaded, attr, wrapped)


def patch_only(module, name: str, wrap: Callable[[Callable], Callable]) -> None:
    """Replace the reference held by ``module`` alone."""
    setattr(module, name, wrap(getattr(module, name)))


def patch_method(cls, name: str, wrap: Callable[[Callable], Callable]) -> None:
    setattr(cls, name, wrap(cls.__dict__[name]))


def install_engine(tracer: Tracer) -> None:
    """Layers inside a process that evaluates: language, modules, eval,
    compilemod, relations, storage, live."""
    import repro.language as language
    from repro.compilemod.push import PushCompiler, PushSCCEvaluator
    from repro.eval.fixpoint import SCCEvaluator
    from repro.live.view import LiveViewManager
    from repro.modules.manager import ModuleManager
    from repro.optimizer import Optimizer
    from repro.relations.memory import HashRelation, ListRelation
    import repro.storage.relation as storage_relation

    span = tracer.span_wrapper
    patch_function(language, "parse_query", lambda f: span("language.parse", f))
    patch_function(language, "parse_program", lambda f: span("language.parse", f))
    for method in ("choose_form", "instance_for"):
        patch_method(ModuleManager, method, lambda f: span("modules.plan", f))
    patch_method(ModuleManager, "compiled_form", lambda f: span(
        "modules.plan", tracer.count_wrapper("modules.plan_lookups", f)))
    patch_method(Optimizer, "compile",
                 lambda f: tracer.count_wrapper("modules.compiles", f))
    patch_method(SCCEvaluator, "iterations", lambda f: span("eval.fixpoint", f))
    patch_method(SCCEvaluator, "run_to_completion",
                 lambda f: span("eval.fixpoint", f))
    patch_method(PushSCCEvaluator, "iterations",
                 lambda f: span("eval.fixpoint", f))
    patch_method(PushCompiler, "program_for",
                 lambda f: span("compilemod.codegen", f))
    for cls in (HashRelation, ListRelation, storage_relation.PersistentRelation):
        patch_method(cls, "scan", tracer.scan_wrapper)
    patch_method(storage_relation.PersistentRelation, "insert",
                 lambda f: span("storage.insert", f))
    # record decodes only: the B-tree decodes keys through its own reference
    patch_only(storage_relation, "decode_tuple",
               lambda f: tracer.count_wrapper("storage.records_decoded", f))
    for method in ("on_insert", "on_delete"):
        patch_method(LiveViewManager, method, lambda f: span("live.maintain", f))


def install_client(tracer: Tracer) -> None:
    """The client codec: frame encode/decode and answer-batch decode."""
    import repro.server.protocol as protocol
    import repro.storage.serde as serde

    span = tracer.span_wrapper
    patch_function(protocol, "encode_frame", lambda f: span("client.codec", f))
    patch_function(protocol, "decode_frame", lambda f: span("client.codec", f))
    patch_function(serde, "decode_batch", lambda f: span("client.codec", f))


def classify(header: dict, cursors: Dict[int, str]) -> str:
    """The benchmark operation a server request belongs to."""
    op = header.get("op")
    if op == "QUERY":
        text = str(header.get("query", ""))
        return "lookup" if text.startswith("edge") else "query"
    if op in ("FETCH", "CLOSE_CURSOR"):
        return cursors.get(header.get("cursor"), OTHER)
    if op in ("INSERT", "DELETE"):
        return "write"
    return OTHER


def install_server(tracer: Tracer) -> None:
    """Service time per operation kind, from ``read_frame`` returning a
    request to ``write_frame`` being called with its response, plus answer
    encoding and bytes on the wire."""
    import repro.server.core as core
    import repro.server.protocol as protocol

    local = threading.local()
    cursors: Dict[int, str] = {}

    def wrap_read(read_frame):
        def traced_read(sock):
            frame = read_frame(sock)
            if frame is not None:
                kind = classify(frame[0], cursors)
                if kind == OTHER:
                    tracer.set_kind(OTHER)
                else:
                    tracer.begin_op(kind)
                local.started = tracer.clock()
                local.bytes_in = getattr(local, "payload", 0)
            return frame

        return traced_read

    def wrap_decode(decode_frame):
        def traced_decode(payload):
            local.payload = len(payload) + 4
            return decode_frame(payload)

        return traced_decode

    def wrap_encode(encode_frame):
        def traced_encode(header, body=b""):
            frame = encode_frame(header, body)
            local.bytes_out = len(frame)
            return frame

        return traced_encode

    def wrap_write(write_frame):
        def traced_write(sock, header, body=b""):
            kind = tracer.kind
            started = getattr(local, "started", None)
            local.started = None
            timed = started is not None and kind != OTHER
            if timed:
                tracer.add_time("server.service", tracer.clock() - started, kind)
                if "cursor" in header:
                    cursors[header["cursor"]] = kind
            local.bytes_out = 0
            try:
                return write_frame(sock, header, body)
            finally:
                if timed:
                    tracer.count("server.bytes", local.bytes_in + local.bytes_out)
                    tracer.end_op()
                else:
                    tracer.set_kind(None)

        return traced_write

    patch_only(protocol, "decode_frame", wrap_decode)
    patch_only(protocol, "encode_frame", wrap_encode)
    patch_only(core, "read_frame", wrap_read)
    patch_only(core, "write_frame", wrap_write)
    patch_only(core, "encode_batch",
               lambda f: tracer.span_wrapper("server.answer_encode", f))
