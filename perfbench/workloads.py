"""Seeded inputs, programs and answer models for the three workloads.

Everything here is plain Python: the generator process imports it to build
the program text it hands to the system, the seeded operation sequence it
drives, and the model it checks every answer against.  Nothing in this
module imports ``repro``, so the models stay independent of the system
under test.

The same seed always gives the same inputs and the same operation
sequence.

Operation sequences are *balanced*: kinds, query shapes and start nodes
are drawn from seeded shuffles of fixed blocks, so every block of draws
holds each choice in its fixed share.  Any prefix of a run therefore has
nearly the same mix whatever the seed, and the seed moves the order and
the data, not the amount of work; that keeps medians steady across runs
with different seeds.

A run is a fixed number of operations, not a fixed time.  The system's
cost per operation grows with the writes a session has seen: every write
under a live view leaves one more mark segment on the base relation, and
every scan of it walks all of them.  A time-bounded run on a faster or
slower machine would therefore end in a different state.  Each workload's
``ops_per_s`` is its rate at the reference speed (``speed.py``), so a run
of ``ops_per_s * seconds`` operations lasts about ``seconds`` there.
"""

from __future__ import annotations

import heapq
import random
from collections import deque
from typing import Dict, Iterator, List, Sequence, Set, Tuple

TC_MODULE = """
module tc.
export path(bf, ff).
path(X, Y) :- edge(X, Y).
path(X, Y) :- edge(X, Z), path(Z, Y).
end_module.
"""

SG_MODULE = """
module sg.
export sg(bf).
sg(X, X) :- person(X).
sg(X, Y) :- par(X, PX), sg(PX, PY), par(Y, PY).
end_module.
"""

#: the paper's Figure 3 over ``wedge/3``, with the companion any() selection
FIG3_MODULE = """
module s_p.
export s_p(bfff).
@aggregate_selection p(X, Y, P, C) (X, Y) min(C).
@aggregate_selection p(X, Y, P, C) (X, Y, C) any(P).
s_p(X, Y, P, C) :- s_p_length(X, Y, C), p(X, Y, P, C).
s_p_length(X, Y, min(<C>)) :- p(X, Y, P, C).
p(X, Y, P1, C1) :- p(X, Z, P, C), wedge(Z, Y, EC),
                   append([edge(Z, Y)], P, P1), C1 = C + EC.
p(X, Y, [edge(X, Y)], C) :- wedge(X, Y, C).
end_module.
"""

TRAIL_MODULE = """
module tr.
export trail(bbf).
trail(X, Y, [X, Y]) :- chain(X, Y).
trail(X, Y, P) :- chain(X, Z), trail(Z, Y, P0), append([X], P0, P).
end_module.
"""

JOIN_MODULE = """
module q.
export owner_tags(bf).
owner_tags(K, T) :- item(K, O, _), tag(O, T).
end_module.
"""

#: node ids of pool sinks start here, far above every graph node
SINK_BASE = 100_000
#: pool edges leave one of the first nodes of cluster 0, which keeps the
#: cost of repairing path(0, Y) after a delete small and steady
POOL_SOURCES = 4
#: the view every write changes (the generator's subscription in serve,
#: the local subscriber in eval)
WATCHED_VIEW = "path(0, Y)"


def _facts(pred: str, rows) -> str:
    return " ".join(
        f"{pred}({', '.join(_literal(v) for v in row)})." for row in rows
    )


def _literal(value) -> str:
    return f'"{value}"' if isinstance(value, str) else str(value)


def balanced(rng: random.Random, items: Sequence) -> Iterator:
    """Endless seeded shuffles of ``items``: each consecutive block of
    ``len(items)`` draws uses every item exactly once."""
    block = list(items)
    while True:
        rng.shuffle(block)
        yield from block


def shares(counts: Dict[str, int]) -> List[str]:
    """One block holding each name ``count`` times."""
    return [name for name, count in counts.items() for _ in range(count)]


# ---------------------------------------------------------------------------
# the graph shared by serve and eval: clusters with a chain backbone
# ---------------------------------------------------------------------------


class ClusterGraph:
    """A sparse DAG of ``clusters`` disjoint clusters of ``size`` nodes.

    Inside a cluster node ``i`` has an edge to ``i + 1`` (the backbone) and
    one seeded forward edge of span 2 to 6, so a bound ``path(k, Y)``
    reaches exactly the rest of ``k``'s cluster and its cost grows with
    ``k``'s distance from the cluster's end.  The write pool is a set of
    edges ``(u, sink)`` from the first ``POOL_SOURCES`` nodes of cluster 0
    to private sink nodes, so every pool edge changes ``path(0, Y)`` by
    exactly one answer; half of the pool is present at any time.
    """

    def __init__(self, rng: random.Random, clusters: int, size: int,
                 pool: int) -> None:
        self.clusters = clusters
        self.size = size
        edges: Set[Tuple[int, int]] = set()
        for cluster in range(clusters):
            base = cluster * size
            for offset in range(size - 1):
                node = base + offset
                edges.add((node, node + 1))
                target = offset + rng.randint(2, 6)
                if target < size:
                    edges.add((node, base + target))
        self.base_edges = sorted(edges)
        sinks = [
            (index % POOL_SOURCES, SINK_BASE + index) for index in range(pool)
        ]
        rng.shuffle(sinks)
        self.present = deque(sinks[: pool // 2])
        self.absent = deque(sinks[pool // 2:])
        self.adjacency: Dict[int, Set[int]] = {}
        for a, b in self.initial_edges():
            self.adjacency.setdefault(a, set()).add(b)

    def initial_edges(self) -> List[Tuple[int, int]]:
        return self.base_edges + list(self.present)

    def move(self) -> Tuple[Tuple[int, int], Tuple[int, int]]:
        """The next write: delete the longest-present pool edge and insert
        the longest-absent one, so the graph keeps its size.  Updates the
        model; returns (deleted, inserted)."""
        deleted, inserted = self.present.popleft(), self.absent.popleft()
        self.absent.append(deleted)
        self.present.append(inserted)
        self.adjacency[deleted[0]].discard(deleted[1])
        self.adjacency.setdefault(inserted[0], set()).add(inserted[1])
        return deleted, inserted

    def reach(self, start: int) -> Set[int]:
        """Model of ``path(start, Y)``: breadth-first reachability."""
        seen: Set[int] = set()
        frontier = deque(self.adjacency.get(start, ()))
        while frontier:
            node = frontier.popleft()
            if node not in seen:
                seen.add(node)
                frontier.extend(self.adjacency.get(node, ()))
        return seen

    def starts(self, rng: random.Random) -> Iterator[int]:
        """Query start nodes, skewed so that popular clusters repeat:
        cluster ``c`` is drawn about ``1/(c+1)`` as often as cluster 0,
        and offsets inside a cluster are balanced."""
        popularity = [max(1, round(6 / (c + 1))) for c in range(self.clusters)]
        clusters = balanced(rng, shares(dict(enumerate(popularity))))
        offsets = balanced(rng, range(self.size - 1))
        while True:
            yield next(clusters) * self.size + next(offsets)


# ---------------------------------------------------------------------------
# serve
# ---------------------------------------------------------------------------

SERVE = {
    "clusters": 10,
    "cluster_size": 36,
    "pool": 24,
    #: point reads per lookup, one request each: a single read over the
    #: wire takes about 0.55 ms, too short to be a steady sample alone
    "lookup_batch": 4,
    #: operation kinds per block of 20
    "mix": {"query": 9, "lookup": 8, "write": 3},
    "warmup_ops": 150,
    #: a run performs ops_per_s x --seconds operations (module docstring)
    "ops_per_s": 90,
}

#: the goals the server registers itself with Session.subscribe: a bound TC
#: view nested in the watched one (path(0, Y) contains path(2, Y)), one on
#: another cluster that writes never change, and base views whose goal
#: forms overlap (edge(X, Y) contains each bound one)
SERVER_VIEWS = (
    "path(2, Y)", "path(40, Y)",
    "edge(X, Y)", "edge(0, Y)", "edge(1, Y)", "edge(2, Y)", "edge(3, Y)",
    "edge(40, Y)",
)


def serve_graph(seed: int) -> ClusterGraph:
    return ClusterGraph(
        random.Random(seed), SERVE["clusters"], SERVE["cluster_size"],
        SERVE["pool"],
    )


def serve_program(graph: ClusterGraph) -> str:
    return _facts("edge", graph.initial_edges()) + TC_MODULE


def serve_ops(seed: int, graph: ClusterGraph) -> Iterator[tuple]:
    """("query", k) | ("lookup", [k...]) | ("write", deleted, inserted)."""
    rng = random.Random(seed * 7919 + 1)
    kinds = balanced(rng, shares(SERVE["mix"]))
    queries, lookups = graph.starts(rng), graph.starts(rng)
    for kind in kinds:
        if kind == "write":
            yield ("write",) + graph.move()
        elif kind == "lookup":
            yield ("lookup", [next(lookups) for _ in range(SERVE["lookup_batch"])])
        else:
            yield ("query", next(queries))


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

EVAL = {
    "tc": {"clusters": 8, "cluster_size": 40, "pool": 24},
    "sg": {"levels": 7, "width": 48},
    #: a circulant graph: node i has edges to i + s (mod nodes) for each
    #: stride s, with seeded weights
    "fig3": {"nodes": 18, "strides": (1, 5), "max_weight": 20},
    "trail": {"hops": 100, "min_hops": 55},
    "lookup_batch": 10,
    #: operation kinds per block of 20, query shapes per block of 20
    "mix": {"query": 8, "lookup": 6, "write": 6},
    #: Figure 3's narrow cost band holds the median query, trail's the p90
    "shapes": {"tc": 4, "sg": 3, "fig3": 6, "trail": 7},
    "warmup_ops": 20,
    "ops_per_s": 38,
}


class SameGeneration:
    """A layered parent DAG: ``levels`` generations of at most ``width``
    people, each with one or two seeded parents in the generation above."""

    def __init__(self, rng: random.Random, levels: int, width: int) -> None:
        self.parents: Dict[int, List[int]] = {}
        self.children: Dict[int, List[int]] = {}
        self.people: List[int] = [0]
        self.levels: List[List[int]] = [[0]]
        node = 1
        for level in range(1, levels):
            current = []
            for _ in range(min(width, 2 ** level)):
                above = self.levels[-1]
                count = min(len(above), 1 + node % 2)
                for parent in rng.sample(above, count):
                    self.parents.setdefault(node, []).append(parent)
                    self.children.setdefault(parent, []).append(node)
                current.append(node)
                self.people.append(node)
                node += 1
            self.levels.append(current)
        self._memo: Dict[int, Set[int]] = {}

    def par_facts(self) -> List[Tuple[int, int]]:
        return sorted(
            (child, parent)
            for child, parents in self.parents.items()
            for parent in parents
        )

    def same_generation(self, person: int) -> Set[int]:
        """Model of ``sg(person, Y)`` by the rule's own recursion."""
        if person not in self._memo:
            result = {person}
            for parent in self.parents.get(person, ()):
                for cousin_parent in self.same_generation(parent):
                    result.update(self.children.get(cousin_parent, ()))
            self._memo[person] = result
        return self._memo[person]


class WeightedGraph:
    """Figure 3's input: a fixed circulant topology with seeded weights,
    so every seed asks the same amount of search of the aggregate
    selections."""

    def __init__(self, rng: random.Random, nodes: int, strides, max_weight: int) -> None:
        self.nodes = nodes
        self.edges = [
            (a, (a + stride) % nodes, rng.randint(1, max_weight))
            for a in range(nodes) for stride in strides
        ]

    def shortest(self, source: int) -> Dict[int, int]:
        """Model of ``s_p(source, Y, P, C)``: Dijkstra's distances over
        paths of at least one edge (so ``source`` appears for its cycles)."""
        adjacency: Dict[int, List[Tuple[int, int]]] = {}
        for a, b, w in self.edges:
            adjacency.setdefault(a, []).append((b, w))
        best: Dict[int, int] = {}
        heap = [(w, b) for b, w in adjacency.get(source, ())]
        heapq.heapify(heap)
        while heap:
            cost, node = heapq.heappop(heap)
            if node in best:
                continue
            best[node] = cost
            for nxt, w in adjacency.get(node, ()):
                if nxt not in best:
                    heapq.heappush(heap, (cost + w, nxt))
        return best


class EvalInputs:
    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        tc, fig3 = EVAL["tc"], EVAL["fig3"]
        self.graph = ClusterGraph(
            rng, tc["clusters"], tc["cluster_size"], tc["pool"]
        )
        self.sg = SameGeneration(rng, EVAL["sg"]["levels"], EVAL["sg"]["width"])
        self.wgraph = WeightedGraph(
            rng, fig3["nodes"], fig3["strides"], fig3["max_weight"]
        )
        self.hops = EVAL["trail"]["hops"]

    def program(self) -> str:
        return "\n".join((
            _facts("edge", self.graph.initial_edges()),
            _facts("par", self.sg.par_facts()),
            _facts("person", [(p,) for p in self.sg.people]),
            _facts("wedge", self.wgraph.edges),
            _facts("chain", [(i, i + 1) for i in range(self.hops)]),
            TC_MODULE, SG_MODULE, FIG3_MODULE, TRAIL_MODULE,
        ))


def eval_ops(seed: int, inputs: EvalInputs) -> Iterator[tuple]:
    """("query", shape, arg) | ("lookup", [k...]) | ("write", del, ins)."""
    rng = random.Random(seed * 7919 + 2)
    graph = inputs.graph
    kinds = balanced(rng, shares(EVAL["mix"]))
    shapes = balanced(rng, shares(EVAL["shapes"]))
    args = {
        "tc": graph.starts(rng),
        "sg": balanced(rng, inputs.sg.levels[-1] + inputs.sg.levels[-2]),
        "fig3": balanced(rng, range(inputs.wgraph.nodes)),
        "trail": balanced(rng, range(inputs.hops - EVAL["trail"]["min_hops"] + 1)),
    }
    lookups = graph.starts(rng)
    for kind in kinds:
        if kind == "write":
            yield ("write",) + graph.move()
        elif kind == "lookup":
            yield ("lookup", [next(lookups) for _ in range(EVAL["lookup_batch"])])
        else:
            shape = next(shapes)
            yield ("query", shape, next(args[shape]))


# ---------------------------------------------------------------------------
# ingest
# ---------------------------------------------------------------------------

INGEST = {
    #: pages in the session's buffer pool (Session(buffer_capacity=...))
    "buffer_pages": 8,
    "item_rows": 400,
    "owners": 97,
    "payload_bytes": 60,
    "tag_rows": 300,
    #: point reads per lookup, of which one asks for an absent key
    "lookup_batch": 8,
    "feed_window": 64,
    #: operation kinds per block of 20, write targets per block of 10
    "mix": {"lookup": 9, "write": 8, "query": 3},
    "write_targets": {"item": 7, "tag": 3},
    #: one full cycle of item's rows (400 rows / 0.28 item writes per op):
    #: from then on every live item row sits on a page of its own and the
    #: heap stops growing, so costs no longer drift with run length
    "warmup_ops": 1500,
    "ops_per_s": 450,
}

#: lookup keys from here up are never inserted
ABSENT_KEYS = 1_000_000_000


class IngestModel:
    """The live rows of ``item(K, O, P)`` (indexed on K) and ``tag(O, T)``
    (unindexed), in insertion order, plus the change-feed window.

    A write deletes one row and inserts a new one.  ``item`` deletes its
    oldest row (first in, first out); ``tag`` deletes its newest.  Deleted
    heap records are tombstones whose space is never reused, so churn
    grows a heap until its live rows sit on pages with room left.  For
    ``item`` that happens after one full cycle (the warm-up); a first-in
    first-out ``tag`` would keep growing the heap its every insert scans,
    and its write cost would drift with run length."""

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.items: List[Tuple[int, int, str]] = []
        self.first_item = 0  # items[:first_item] were deleted
        self.owner_of: Dict[int, Tuple[int, str]] = {}
        self.tags: deque = deque()
        self.tags_of: Dict[int, Set[str]] = {}
        self.feed: deque = deque()
        self.next_key = 0
        self.next_tag = 0

    def new_item(self) -> Tuple[int, int, str]:
        key = self.next_key
        self.next_key += 1
        owner = self.rng.randrange(INGEST["owners"])
        payload = f"{key:08d}" + "p" * (INGEST["payload_bytes"] - 8)
        return key, owner, payload

    def new_tag(self) -> Tuple[int, str]:
        name = f"t{self.next_tag}"
        self.next_tag += 1
        return self.rng.randrange(INGEST["owners"]), name

    def add_item(self, row) -> None:
        self.items.append(row)
        self.owner_of[row[0]] = (row[1], row[2])

    def drop_item(self):
        row = self.items[self.first_item]
        self.first_item += 1
        del self.owner_of[row[0]]
        return row

    def live_item_key(self, rng: random.Random) -> int:
        return self.items[rng.randrange(self.first_item, len(self.items))][0]

    def add_tag(self, row) -> None:
        self.tags.append(row)
        self.tags_of.setdefault(row[0], set()).add(row[1])

    def drop_tag(self):
        row = self.tags.pop()
        self.tags_of[row[0]].discard(row[1])
        return row

    def live_rows(self) -> int:
        return len(self.owner_of) + len(self.tags)

    def owner_tags(self, key: int) -> Set[str]:
        """Model of ``owner_tags(key, T)``."""
        owner = self.owner_of.get(key)
        return set(self.tags_of.get(owner[0], ())) if owner else set()


def ingest_ops(seed: int, model: IngestModel) -> Iterator[tuple]:
    """("lookup", [k...]) | ("write", target) | ("query", k).  Writes draw
    their rows from the model when executed, so the sequence stays one
    fixed function of the seed."""
    rng = random.Random(seed * 7919 + 3)
    kinds = balanced(rng, shares(INGEST["mix"]))
    targets = balanced(rng, shares(INGEST["write_targets"]))
    for kind in kinds:
        if kind == "write":
            yield ("write", next(targets))
        elif kind == "lookup":
            keys = [model.live_item_key(rng)
                    for _ in range(INGEST["lookup_batch"] - 1)]
            keys.insert(rng.randrange(len(keys) + 1),
                        ABSENT_KEYS + rng.randrange(1000))
            yield ("lookup", keys)
        else:
            yield ("query", model.live_item_key(rng))
