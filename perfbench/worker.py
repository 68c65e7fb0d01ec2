"""One measured pass of a workload in a fresh interpreter.

Usage (normally started by run.py, with src/ on PYTHONPATH):

    python3 perfbench/worker.py --workload NAME --seed N
        (--seconds S | --rounds R) [--trace] [--out-dir DIR]

The pass imports etarho (timed), then runs rounds of jobs closed-loop, one
at a time: each job is started only after the previous one is checked.
With ``--seconds`` it stops at the first job boundary after the deadline,
always finishing at least one round; only whole rounds enter the timing
statistics, and every round must hold the same slots (see workloads.py).
With ``--rounds`` it runs exactly that many rounds (the traced pass repeats
the jobs of an untraced one).  The last stdout line is a JSON summary.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

from hostprobe import host_probe, probe_median  # noqa: E402

_probe_before = probe_median()
_t0 = time.perf_counter()
import etarho  # noqa: E402,F401  (the import itself is what setup_s measures)

IMPORT_S = time.perf_counter() - _t0
IMPORT_PROBE_S = (_probe_before + probe_median()) / 2
del _t0, _probe_before

import random  # noqa: E402

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, ball_json_probe  # noqa: E402


def digest(record) -> str:
    text = json.dumps(record, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode()).hexdigest()


def run_pass(name: str, seed: int, seconds: float | None, rounds: int | None,
             tracer: Tracer | None, log):
    workload = WORKLOADS[name](random.Random(f"{name}:{seed}"))
    durations, probes, slots, job_digests = [], [], [], []
    round_slots: list[str] = []
    attempted = failed = 0
    failures: list[str] = []
    round1_sha256 = ""
    deadline = time.perf_counter() + (seconds or 0.0)
    done = 0
    while rounds is None or done < rounds:
        jobs = workload.round(done)
        if done == 0:
            round_slots = [job.slot for job in jobs]
        elif sorted(job.slot for job in jobs) != sorted(round_slots):
            raise RuntimeError(f"round {done} of {name} holds other slots than round 0")
        round_durs, round_probes, round_digests = [], [], []
        probe_s = host_probe()
        for job in jobs:
            if rounds is None and done and time.perf_counter() >= deadline:
                break
            attempted += 1
            if tracer is not None:
                tracer.current_job = attempted
                tracer.on = True
            start = time.perf_counter()
            error = None
            try:
                result = job.call()
            except Exception as exc:  # noqa: BLE001  (a job that raises has failed)
                error = exc
            elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.on = False
            # the host's speed around the job: the probes just before and after it
            before_s, probe_s = probe_s, host_probe()
            round_probes.append((before_s + probe_s) / 2)
            if error is None:
                try:
                    output = job.check(result)
                except Exception as exc:  # noqa: BLE001  (reported, the run goes on)
                    error = exc
            if error is not None:
                failed += 1
                failures.append(f"{job.kind} {json.dumps(job.params)[:200]}: "
                                f"{type(error).__name__}: {error}")
                output = {"failed": f"{type(error).__name__}: {error}"}
            record = {"kind": job.kind, "params": job.params, "output": output}
            round_durs.append(elapsed)
            round_digests.append(digest(record))
            log.write(json.dumps({"round": done, "slot": job.slot, "seconds": elapsed,
                                  "probe_s": round_probes[-1],
                                  "sha256": round_digests[-1]}) + "\n")
        if len(round_durs) < len(jobs):
            break
        durations += round_durs
        probes += round_probes
        slots += [job.slot for job in jobs]
        job_digests += round_digests
        if done == 0:
            round1_sha256 = digest(round_digests)
        done += 1
        if rounds is None and time.perf_counter() >= deadline:
            break
    return {
        "rounds": done,
        "durations": durations,
        "probes": probes,
        "slots": slots,
        "round_slots": round_slots,
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:10],
        "sha256": digest(job_digests),
        "round1_sha256": round1_sha256,
    }


def layer_metrics(tracer: Tracer, busy_s: float) -> dict:
    """Per-layer counts and self times derived from the recorded spans."""
    import numpy as np

    from etarho import lens, zoo

    dur, self_t = tracer.self_times()
    name_id = np.frombuffer(tracer.name_id, dtype=np.int32)
    parent = np.frombuffer(tracer.parent, dtype=np.int32)
    has_parent = parent >= 0
    parent_name = np.where(has_parent, name_id[np.maximum(parent, 0)], -1)
    layer_of = np.array([name.split(".", 1)[0] for name in tracer.names])
    span_layer = layer_of[name_id]
    parent_layer = np.where(has_parent, span_layer[np.maximum(parent, 0)], "")

    out = {"trace.spans": float(len(dur)), "bench.busy_s": busy_s,
           "bench.self_s": max(0.0, busy_s - float(dur[~has_parent].sum()))}
    for i, name in enumerate(tracer.names):
        m = name_id == i
        out[f"{name}.calls"] = float(m.sum())
        out[f"{name}.self_s"] = float(self_t[m].sum())
        out[f"{name}.total_s"] = float(dur[m].sum())
    for layer in set(layer_of):
        m = span_layer == layer
        out[f"{layer}.calls"] = float(m.sum())
        out[f"{layer}.self_s"] = float(self_t[m].sum())
    for key in ("exactlinalg.exact_rank.cells", "zoo.bfs.nodes",
                "lens.search_nonvanishing.witnesses"):
        out[key] = float(tracer.counters.get(key, 0))

    def ratio(a, b):
        return float(a) / float(b) if b else 0.0

    def cache_ratio(fn):
        info = fn.cache_info() if hasattr(fn, "cache_info") else None
        return ratio(info.hits, info.hits + info.misses) if info else 0.0

    out["lens.table_cache.hit_ratio"] = cache_ratio(getattr(lens, "_lens_table", None))
    out["zoo.lambda_cache.hit_ratio"] = cache_ratio(getattr(zoo, "_lambda_levels", None))
    candidates = float(((name_id == tracer.ids.get("chars.pair_phi", -2))
                        & (parent_name == tracer.ids.get("lens.search_nonvanishing", -2))).sum())
    out["lens.search_nonvanishing.candidates"] = candidates
    out["lens.search_nonvanishing.hit_ratio"] = ratio(
        out["lens.search_nonvanishing.witnesses"], candidates)
    out["circle.quad.calls_per_term"] = ratio(out.get("circle.quad.calls", 0),
                                              out.get("circle.eta_term.calls", 0))
    outer_zoo = (span_layer == "zoo") & (parent_layer != "zoo")
    out["zoo.bfs.nodes_per_s"] = ratio(out["zoo.bfs.nodes"], dur[outer_zoo].sum())
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--rounds", type=int)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out-dir", type=Path, default=Path(".perfbench_out"))
    args = parser.parse_args(argv)
    if (args.seconds is None) == (args.rounds is None):
        parser.error("give exactly one of --seconds and --rounds")

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    args.out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-{'traced' if args.trace else 'untraced'}"
    with open(args.out_dir / f"{stem}.jobs.jsonl", "w") as log:
        summary = run_pass(args.workload, args.seed, args.seconds, args.rounds,
                           tracer, log)
    summary["import_s"] = IMPORT_S
    summary["import_probe_s"] = IMPORT_PROBE_S
    summary["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    busy = sum(summary["durations"])
    summary["busy_s"] = busy

    if args.workload == "zoo-bfs":
        try:
            status, message = ball_json_probe()
        except Exception as exc:  # noqa: BLE001  (a new failure mode is a failure)
            status, message = "failed", f"{type(exc).__name__}: {exc}"
        summary["ball_json_probe"] = {"status": status, "message": message}
        if status == "failed":
            summary["attempted"] += 1
            summary["failed"] += 1
            summary["failures"].append(f"zoo --ball JSON probe: {message}")

    if tracer is not None:
        summary["per_layer"] = layer_metrics(tracer, busy)
        probe = summary.get("ball_json_probe", {})
        summary["per_layer"]["zoo.ball_json.known_defects"] = float(
            probe.get("status") == "known_defect")
        tracer.save(args.out_dir / f"{stem}.spans.npz")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
