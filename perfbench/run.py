"""The benchmark's one command.

    python3 perfbench/run.py --workload serve|eval|ingest --seed N \\
        --seconds S --trace 0|1

Run from the root of a checkout; the system is imported from ``src/``.
Every generator and server process is fresh, and all files go under a
fresh run directory in ``.perfbench_run/`` that is removed at the end.

A run measures ``ops_per_s * S`` operations of the workload, which takes
about S seconds at the reference speed (``workloads.py`` says why the
length is counted in operations).  Every process of a run shares one CPU,
and every time is scaled to the reference speed (``speed.py``).
``--trace 0`` measures the end-to-end metrics: six set-up-only processes
and the measured run's own set-up give seven set-up samples (their median
is ``setup_s``).  ``--trace 1`` splits
the same number of operations into two passes of the same operations,
untraced and then traced, and reports the per-layer metrics of the traced
pass plus ``trace.overhead_ratio``.

Repeatability guard: the exact work counts (rows loaded, inferences,
facts inserted, pages written, deltas emitted) of the set-up samples, and
of the two passes of a traced run, must be identical.  A difference marks
the run incorrect and is printed on standard error.

The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import speed  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402

SPECS = {"serve": workloads.SERVE, "eval": workloads.EVAL, "ingest": workloads.INGEST}
SETUP_SAMPLES = 7
REQUEST_KINDS = ("query", "lookup", "write")
#: every child process must end well inside the benchmark's own limit
CHILD_TIMEOUT = 150


def spawn(args, run_dir: str, mode: str, trace: bool, ops: int) -> dict:
    cfg = {
        "workload": args.workload, "seed": args.seed, "mode": mode,
        "trace": trace, "ops": ops, "run_dir": run_dir,
    }
    cfg["spawned"] = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "gen.py"), json.dumps(cfg)],
        cwd=ROOT, stdout=subprocess.PIPE, timeout=CHILD_TIMEOUT, text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"generator exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(setups: list, run: dict) -> dict:
    """Every time is scaled to the reference machine's speed
    (``speed.py``)."""
    samples = run["samples"]
    values = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "ops_per_s": _ratio(run["ops"], run["elapsed"]),
        "peak_rss_mb": run["peak_rss_mb"],
    }
    for kind in ("query", "lookup", "write", "notify"):
        for name, fraction in (("p50", 0.5), ("p90", 0.9)):
            value = stats.percentile(samples[kind], fraction)
            if value is not None:
                values[f"{kind}_{name}_ms"] = value
    return values


def _sum(table: dict, name: str, kinds=REQUEST_KINDS) -> float:
    return sum(table.get(name, {}).get(kind, 0) for kind in kinds)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(untraced: dict, traced: dict) -> dict:
    """Per-layer metrics of a traced pass; a layer the workload does not
    reach reads 0.  Times are scaled like the end-to-end ones."""
    empty = {"ms": {}, "counts": {}}
    client = traced.get("trace") or empty
    server = (traced.get("server") or {}).get("trace")
    engine = server or client
    ms, counts = engine["ms"], engine["counts"]
    per_kind = traced["per_kind"]
    ops = sum(per_kind.get(k, 0) for k in REQUEST_KINDS)
    queries, lookups, writes = (per_kind.get(k, 0) for k in REQUEST_KINDS)
    answers = traced["answers"].get("query", 0)
    # the run's mean scale, as the per-layer totals span the whole run
    scale = _ratio(traced["elapsed"], traced["raw_elapsed"])
    # client latencies unscaled, to set beside the server's raw times
    latency = {k: _ratio(sum(traced["samples"][k]), scale) for k in REQUEST_KINDS}
    service = server["ms"].get("server.service", {}) if server else {}
    service_total = sum(service.get(k, 0) for k in REQUEST_KINDS)
    inferences = counts.get("eval.inferences", {}).get("query", 0)
    hits = _sum(counts, "storage.buffer_hits", REQUEST_KINDS)
    misses = _sum(counts, "storage.buffer_misses", REQUEST_KINDS)
    lookups_planned = _sum(counts, "modules.plan_lookups", REQUEST_KINDS + ("other",))
    compiles = _sum(counts, "modules.compiles", REQUEST_KINDS + ("other",))
    values = {
        "client.codec_ms_per_op": _ratio(_sum(client["ms"], "client.codec"), ops)
        if server else 0.0,
        "server.service_ms_per_op": _ratio(service_total, ops),
        "server.service_ms_per_query": _ratio(service.get("query", 0), queries),
        "server.service_ms_per_lookup": _ratio(service.get("lookup", 0), lookups),
        "server.service_ms_per_write": _ratio(service.get("write", 0), writes),
        "server.wire_ms_per_op": _ratio(sum(latency.values()) - service_total, ops)
        if server else 0.0,
        "server.answer_encode_ms_per_query": _ratio(
            ms.get("server.answer_encode", {}).get("query", 0), queries),
        "server.bytes_per_op": _ratio(_sum(counts, "server.bytes"), ops),
        "language.parse_ms_per_op": _ratio(_sum(ms, "language.parse"), ops),
        "modules.plan_ms_per_query": _ratio(
            ms.get("modules.plan", {}).get("query", 0), queries),
        "modules.plan_cache_hit_ratio": 1.0 - _ratio(compiles, lookups_planned)
        if lookups_planned else 0.0,
        "eval.fixpoint_self_ms_per_query": _ratio(
            ms.get("eval.fixpoint", {}).get("query", 0), queries),
        "eval.inferences_per_query": _ratio(inferences, queries),
        "eval.iterations_per_query": _ratio(
            counts.get("eval.iterations", {}).get("query", 0), queries),
        "eval.useful_ratio": _ratio(
            counts.get("eval.facts_inserted", {}).get("query", 0), inferences),
        "compilemod.codegen_ms": _sum(
            ms, "compilemod.codegen", REQUEST_KINDS + ("other",)),
        "relations.scans_per_query": _ratio(
            counts.get("relations.scans", {}).get("query", 0), queries),
        "relations.rows_examined_per_answer": _ratio(
            counts.get("relations.rows_examined", {}).get("query", 0), answers),
        "storage.buffer_hit_ratio": _ratio(hits, hits + misses),
        "storage.page_reads_per_op": _ratio(
            _sum(counts, "storage.page_reads"), ops),
        "storage.page_writes_per_op": _ratio(
            _sum(counts, "storage.page_writes"), ops),
        "storage.btree_nodes_per_lookup": _ratio(
            counts.get("storage.btree_node_reads", {}).get("lookup", 0),
            traced["points"]),
        "storage.records_decoded_per_write": _ratio(
            counts.get("storage.records_decoded", {}).get("write", 0), writes),
        "storage.insert_ms_per_write": _ratio(
            ms.get("storage.insert", {}).get("write", 0), writes),
        "storage.bytes_per_row": traced["bytes_per_row"],
        "live.maintain_ms_per_write": _ratio(
            ms.get("live.maintain", {}).get("write", 0), writes),
        "live.deltas_per_write": _ratio(
            counts.get("live.deltas", {}).get("write", 0), writes),
        "live.rebuilds_per_write": _ratio(
            counts.get("live.rebuilds", {}).get("write", 0), writes),
        "trace.overhead_ratio": _ratio(traced["elapsed"], untraced["elapsed"]),
    }
    return {name: value * scale if "_ms" in name else value
            for name, value in values.items()}


def same_counts(label: str, runs: list, field: str) -> bool:
    first = runs[0][field]
    for other in runs[1:]:
        if other[field] != first:
            print(f"repeatability: {label} work counts differ: {first} vs "
                  f"{other[field]}", file=sys.stderr)
            return False
    return True


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SPECS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # every process of the run shares one CPU, so the calibration slices
    # (speed.py) time the CPU that does all the work, the server's too
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in declared[section]}

    run_dir = os.path.join(ROOT, ".perfbench_run", f"{args.workload}-{os.getpid()}")
    os.makedirs(run_dir)
    ops = round(SPECS[args.workload]["ops_per_s"] * args.seconds)
    try:
        if args.trace:
            passes = [spawn(args, run_dir, "run", trace, ops // 2)
                      for trace in (False, True)]
            values = per_layer(*passes)
            repeatable = same_counts("untraced and traced pass", passes, "counts")
        else:
            setups = [spawn(args, run_dir, "setup", False, 0)
                      for _ in range(SETUP_SAMPLES - 1)]
            run = spawn(args, run_dir, "run", False, ops)
            passes = [run]
            values = end_to_end(setups + [run], run)
            repeatable = same_counts("set-up", setups + [run], "setup_counts")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(run_dir))
        except OSError:
            pass  # another run still uses it

    for record in passes:
        if record["slices"]:
            print(f"speed: calibration slice median "
                  f"{statistics.median(record['slices']):.3f} ms "
                  f"(reference {speed.REFERENCE_MS} ms)", file=sys.stderr)
        for failure in record["failures"]:
            print(f"failed: {failure}", file=sys.stderr)
    attempted = sum(r["attempted"] for r in passes)
    failed = sum(r["failed"] for r in passes)
    missing = sorted(set(units) - set(values))
    if missing:
        print(f"not measured (too few samples): {missing}", file=sys.stderr)
    result = {
        "correct": failed == 0 and repeatable and not missing,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": units[name]}
            for name in units if name in values
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
