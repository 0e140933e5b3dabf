"""Run every workload over several seeds and summarise each metric.

    python3 bench/collect.py --seeds 0-9 [--workloads scenario-loop,...]
                             [--modes 0,1] [--out bench/history/BENCH_<commit>.json]

Reads the workloads, metrics, bounds and run length from BENCHMARK.json,
runs ``bench/run.py`` once per workload, seed and mode (0: end-to-end,
1: traced per-layer), and prints for every workload and metric its median,
quartiles and spread (the distance between the quartiles as a share of the
median) next to the metric's bound.  ``--out`` writes the same summary,
with the environment of the first run, as a BENCH entry; an existing entry
is updated, so end-to-end and traced collections can share one file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from record import seed_range
from run import ROOT
from stats import spread

BENCH_DIR = Path(__file__).resolve().parent


def run_once(workload: str, seed: int, seconds: int, mode: int) -> tuple:
    t0 = perf_counter()
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(mode)],
        cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} mode {mode} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), None)
    return env, json.loads(lines[-1]), perf_counter() - t0


def summarise(results: list, seeds: list, bounds: dict) -> dict:
    metrics = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        entry = {"unit": results[0]["metrics"][name]["unit"], "median": statistics.median(values),
                 "values": values}
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
            entry.update(q1=q1, q3=q3)
            if entry["median"]:
                entry["spread"] = spread(values)
        if name in bounds:
            entry["bound"] = bounds[name]
        metrics[name] = entry
    return {
        "seeds": seeds,
        "runs": len(results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-9", help="inclusive range, as in 0-9")
    parser.add_argument("--workloads", help="comma-separated (default: all in BENCHMARK.json)")
    parser.add_argument("--modes", default="0", help="0 end-to-end, 1 traced, or 0,1")
    parser.add_argument("--out", help="write the summary as a BENCH entry")
    parser.add_argument("--note", action="append", default=[], help="free text kept in the entry")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seeds = seed_range(args.seeds)
    modes = [int(m) for m in args.modes.split(",")]
    out = Path(args.out) if args.out else None
    entry = json.loads(out.read_text()) if out and out.is_file() else {"notes": [], "workloads": {}}
    entry["run_seconds"] = spec["run_seconds"]
    entry["notes"] += args.note
    worst = 0
    for workload in workloads:
        for mode in modes:
            results, run_s = [], []
            for seed in seeds:
                env, result, elapsed = run_once(workload, seed, spec["run_seconds"], mode)
                entry.setdefault("env", env)
                results.append(result)
                run_s.append(elapsed)
            summary = summarise(results, seeds, bounds)
            summary["run_s_max"] = max(run_s)
            entry["workloads"].setdefault(workload, {})["per_layer" if mode else "end_to_end"] = summary
            print(f"{workload} ({'traced' if mode else 'untraced'}, {len(results)} runs of up to "
                  f"{max(run_s):.0f} s, {summary['failed']}/{summary['attempted']} failed)")
            for name, m in summary["metrics"].items():
                line = f"  {name:28s} {m['median']:<14.6g} {m['unit']:6s}"
                if "q1" in m:
                    line += f" q1 {m['q1']:<12.6g} q3 {m['q3']:<12.6g}"
                if "spread" in m:
                    line += f" spread {m['spread']:.4f}"
                if "bound" in m:
                    line += f" bound {m['bound']}"
                    if name != "setup_s" and m.get("spread", 0.0) > m["bound"] / 3:
                        line += "  <-- above a third of the bound"
                print(line, flush=True)
            worst = max(worst, summary["failed"])
    if out:
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(entry, indent=1, sort_keys=True) + "\n")
        print(f"wrote {out}")
    return 1 if worst else 0


if __name__ == "__main__":
    sys.exit(main())
