"""Benchmark entry point: one seeded, closed-loop run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the package is imported from
``src/``; nothing is installed).  One client, one thread: every pass runs in
its own fresh interpreter started by this script, one after another, so
each pass begins with empty caches the way a command-line user does.

--trace 0  four import-only interpreters plus one measured pass of S
           seconds; prints the end-to-end metrics of BENCHMARK.json.
--trace 1  an untraced pass of S/2 seconds, then a traced pass over exactly
           the same rounds of jobs; prints the per-layer metrics of
           BENCHMARK.json, including the traced/untraced time ratio, and
           requires both passes to produce the same output digest.

All times are scaled to one reference host speed (see hostprobe.py), each
by the mean of the probes timed just before and just after it.  Job times
are read per slot (a job kind and size class that every round holds once;
see workloads.py): a slot's time is the mean of the middle 60% of its
scaled times over the pass, and the end-to-end job metrics describe one
round with each job at its slot's time.

Notes go to stdout first; the last stdout line is the JSON result.  Job
logs and span files are written under ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostprobe import at_reference_speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_PROBES = 4  # plus the measured pass's own import: five samples
MIN_ROUNDS = 5  # fewer samples per slot leave its time to chance
TRIM = 0.2  # share of a slot's times dropped at each end before the mean
BUDGET_S = 170.0  # every run must end within 180 s

PROBE = ("import time; from hostprobe import probe_median; p = probe_median(); "
         "t = time.perf_counter(); import etarho; t = time.perf_counter() - t; "
         "print(t, (p + probe_median()) / 2)")


def child_env() -> dict:
    env = dict(os.environ)
    path = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    env["PYTHONPATH"] = path + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"  # output digests must not depend on str hashing
    return env


def run_child(argv: list[str], started: float) -> str:
    """Run a fresh interpreter to completion and return its stdout."""
    timeout = max(5.0, BUDGET_S - (time.perf_counter() - started))
    proc = subprocess.run([sys.executable] + argv, cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv[:2])} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return proc.stdout


def worker(args, started: float, *, seconds=None, rounds=None, trace=False) -> dict:
    argv = [str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--out-dir", str(OUT_DIR)]
    argv += ["--seconds", str(seconds)] if rounds is None else ["--rounds", str(rounds)]
    if trace:
        argv.append("--trace")
    return json.loads(run_child(argv, started).strip().splitlines()[-1])


def trimmed_mean(values: list[float]) -> float:
    """Mean of the middle 60% of the values: like a median it ignores a few
    slow samples, and it is steadier, since it averages more of them."""
    values = sorted(values)
    cut = int(len(values) * TRIM)
    middle = values[cut:len(values) - cut]
    return sum(middle) / len(middle)


def round_times(res: dict) -> list[float]:
    """One round's jobs, each at its slot's trimmed-mean scaled time."""
    scaled: dict[str, list[float]] = {}
    for slot, seconds, probe_s in zip(res["slots"], res["durations"], res["probes"]):
        scaled.setdefault(slot, []).append(at_reference_speed(seconds, probe_s))
    return [trimmed_mean(scaled[slot]) for slot in res["round_slots"]]


def note(workload: str, seed: int, res: dict) -> None:
    print(f"# {workload} seed {seed}: {len(res['durations'])} jobs in "
          f"{res['rounds']} whole rounds of {len(res['round_slots'])} slots "
          f"({res['attempted']} attempted, {res['failed']} failed); outputs sha256 "
          f"{res['sha256']} (round 1: {res['round1_sha256']})")
    if res["rounds"] < MIN_ROUNDS:
        print(f"# warning: only {res['rounds']} whole rounds (want >= {MIN_ROUNDS})")
    probe = res.get("ball_json_probe")
    if probe and probe["status"] == "known_defect":
        print(f"# known defect, not counted as failed: {probe['message']}")
    for failure in res["failures"]:
        print(f"# FAILED {failure}")


def end_to_end(args, started: float) -> tuple[dict, dict, bool]:
    setups = [at_reference_speed(*map(float, run_child(["-c", PROBE], started).split()))
              for _ in range(SETUP_PROBES)]
    res = worker(args, started, seconds=args.seconds)
    setups.append(at_reference_speed(res["import_s"], res["import_probe_s"]))
    note(args.workload, args.seed, res)
    times = round_times(res)
    values = {
        "setup_s": statistics.median(setups),
        "jobs_per_s": len(times) / sum(times),
        "job_p50_s": statistics.median(times),
        "job_p90_s": statistics.quantiles(times, n=10)[8],
        "peak_rss_mb": res["peak_rss_kb"] / 1024.0,
    }
    return values, res, True


def per_layer(args, started: float) -> tuple[dict, dict, bool]:
    base = worker(args, started, seconds=args.seconds / 2)
    traced = worker(args, started, rounds=base["rounds"], trace=True)
    note(args.workload, args.seed, base)
    note(args.workload, args.seed, traced)
    same = traced["sha256"] == base["sha256"]
    if not same:
        print("# FAILED traced and untraced passes produced different outputs")
    values = dict(traced["per_layer"])
    values["trace.overhead_ratio"] = sum(round_times(traced)) / sum(round_times(base))
    merged = dict(traced)
    merged["attempted"] += base["attempted"]
    merged["failed"] += base["failed"]
    return values, merged, same


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "etarho" / "__init__.py").is_file():
        print(f"error: no etarho sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    started = time.perf_counter()
    OUT_DIR.mkdir(exist_ok=True)
    measure = per_layer if args.trace else end_to_end
    values, res, consistent = measure(args, started)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise KeyError(f"metrics not computed: {missing}")
    result = {
        "correct": bool(consistent and res["failed"] == 0),
        "attempted": int(res["attempted"]),
        "failed": int(res["failed"]),
        "metrics": {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
