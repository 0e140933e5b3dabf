"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload scenario-loop --seed 0 --seconds 25 --trace 0

Run from the root of a source checkout: the program is imported from
``src/`` and reads ``data/``.  With ``--trace 0`` the run reports the
end-to-end metrics, measured with tracing off:

    setup_s      median of three set-ups (imports, config load, reference
                 runs, fixture generation), the first in this process and
                 two in fresh interpreters
    wall_s       median time of one round of the timed phase; a round is
                 one scenario from call to summary (scenario-loop), one
                 CLI sweep process (sweep-start), or one load, calibrate,
                 write, read and plot pass (output-roundtrip)
    items_per_s  median over rounds of the work items a round completed
                 per second: scenarios (scenario-loop; for sweep-start the
                 10 members plus the 2 baselines), or trajectory rows
                 written plus read (output-roundtrip)
    peak_rss_mb  peak resident memory of the largest workload process,
                 children included

Times are in reference-speed seconds (see ``stats.SpeedProbe``): the
workload's reference loop runs before and after each round, and during a sweep round, and
each raw round time is divided by the loop's mean time around it over its
nominal time, so the host's changing core speed cancels.  Set-up samples
are scaled by loop samples taken in their own process, traced runs by all
samples of the run.  Raw round times and the run's slowdown are printed as
well.

With ``--trace 1`` it alternates untraced and traced runs of the same
rounds and reports the per-layer metrics of ``tracing.layer_metrics``,
with ``trace.overhead_s`` the traced minus the untraced median round time.
Spans are written to ``.bench_work/traces/``.

Every output is checked (see ``checks.py``).  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it give the environment and every metric by
name and unit, including ``failed_share``.
"""

from time import perf_counter

_T0 = perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCE = BENCH_DIR / "reference.json"
SETUP_SAMPLES = 3


def load_program(root: Path) -> SimpleNamespace:
    """Import epigrowth from the checkout's ``src/``, never from elsewhere."""
    src = root / "src"
    if not (src / "epigrowth" / "__init__.py").is_file():
        raise SystemExit(f"error: no program source at {src / 'epigrowth'}")
    sys.path.insert(0, str(src))
    import epigrowth
    from epigrowth import calibration, cli, data_io, planner, plotting, scenarios

    if Path(epigrowth.__file__).resolve().parent != (src / "epigrowth").resolve():
        raise SystemExit(f"error: epigrowth imported from {epigrowth.__file__}, not {src}")
    return SimpleNamespace(package=epigrowth, calibration=calibration, cli=cli, data_io=data_io,
                           planner=planner, plotting=plotting, scenarios=scenarios)


def git_commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                          text=True, timeout=30)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(ep, root: Path) -> dict:
    import numpy

    config = ep.data_io.load_config()
    datasets = {}
    for name in ("population", "gdp", "gcf", "cases", "tradeoff"):
        path = root / "data" / config.data[name]
        datasets[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "epigrowth": ep.package.__version__,
        "commit": git_commit(root),
        "params_digest": config.params.digest(),
        "datasets_sha256": datasets,
    }


def fresh_setup_s(args) -> float:
    """Set-up time of the workload in a fresh interpreter, in
    reference-speed seconds."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only", "--workload",
         args.workload, "--seed", str(args.seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise SystemExit(f"error: set-up failed in a fresh process:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def peak_rss_mb() -> float:
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def timed_rounds(workload, seconds: float, tally, probe) -> dict:
    """Run rounds until their raw timed total reaches ``seconds``.  Each
    round is bracketed by speed-probe samples and scaled by their mean;
    checks run between rounds, outside the timing."""
    durations, scaled, rates, i = [], [], [], 0
    while i == 0 or sum(durations) < seconds:
        start = len(probe.samples)
        probe.sample()
        t0 = perf_counter()
        output = workload.run_round(i, probe)
        durations.append(perf_counter() - t0)
        probe.sample()
        slowdown = probe.slowdown(start)
        scaled.append(durations[-1] / slowdown)
        rates.append(workload.items(output) / scaled[-1])
        workload.check(i, output, tally)
        i += 1
    return {"durations": durations, "scaled": scaled, "rates": rates}


def traced_rounds(workload, ep, seconds: float, tally, probe, trace_path: Path) -> dict:
    """After a warm-up round, pairs of one untraced and one traced run of
    the same round, in alternating order, until the time spent in rounds
    reaches ``seconds``."""
    from stats import timing_summary
    from tracing import ROOT_SPAN, Tracer, instrument, layer_metrics

    tracer = Tracer()
    # a warm-up round, so the first pair does not pay for cold caches; it
    # counts against the run's time but is not reported
    t0 = perf_counter()
    workload.check(0, workload.run_round(0, None), tally)
    warm_up = perf_counter() - t0
    untraced, traced, i = [], [], 0
    while i == 0 or warm_up + sum(untraced) + sum(traced) < seconds:
        probe.sample()
        for traced_side in ((False, True) if i % 2 == 0 else (True, False)):
            if traced_side:
                tracer.run_id = i
                instrument(tracer, ep)
                try:
                    t0 = perf_counter()
                    with tracer.span(ROOT_SPAN):
                        output = workload.run_round(i, None)
                    traced.append(perf_counter() - t0)
                finally:
                    tracer.uninstall()
            else:
                t0 = perf_counter()
                output = workload.run_round(i, None)
                untraced.append(perf_counter() - t0)
            workload.check(i, output, tally)
        i += 1
    probe.sample()
    tracer.write(trace_path)
    metrics = layer_metrics(tracer)
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    return {"metrics": metrics, "untraced": timing_summary(untraced), "traced": timing_summary(traced)}


END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "items_per_s": "1/s", "peak_rss_mb": "MB"}


def at_reference_speed(value: float, unit: str, slowdown: float) -> float:
    if unit == "s":
        return value / slowdown
    if unit == "1/s":
        return value * slowdown
    return value


def layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(BENCH_DIR))
    from checks import Tally
    from stats import SpeedProbe, timing_summary
    from workloads import WORKLOADS, Context

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    ep = load_program(ROOT)
    work_dir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    reference = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    ctx = Context(ROOT, work_dir, reference)
    try:
        workload = WORKLOADS[args.workload](ep, ctx, args.seed)
        setup = perf_counter() - _T0
        setup_probe = SpeedProbe(workload.PROBE)
        setup_probe.sample(5)
        if args.setup_only:
            print(json.dumps({"setup_s": setup / setup_probe.slowdown()}))
            return 0
        env = environment(ep, ROOT)
        print("env " + json.dumps(env, sort_keys=True))
        tally = Tally()
        probe = SpeedProbe(workload.PROBE)
        if args.trace:
            workload.in_process = True
            trace_path = ROOT / ".bench_work" / "traces" / f"{args.workload}-seed{args.seed}.json"
            result = traced_rounds(workload, ep, args.seconds, tally, probe, trace_path)
            print(f"raw rounds untraced {json.dumps(result['untraced'])} "
                  f"traced {json.dumps(result['traced'])}")
            metrics = {k: (at_reference_speed(v, layer_unit(k), probe.slowdown()), layer_unit(k))
                       for k, v in sorted(result["metrics"].items())}
        else:
            setups = [setup / setup_probe.slowdown()] + [
                fresh_setup_s(args) for _ in range(SETUP_SAMPLES - 1)]
            result = timed_rounds(workload, args.seconds, tally, probe)
            print(f"rounds {json.dumps(timing_summary(result['scaled']))} "
                  f"raw {json.dumps(timing_summary(result['durations']))}")
            metrics = {
                "setup_s": (statistics.median(setups), "s"),
                "wall_s": (statistics.median(result["scaled"]), "s"),
                "items_per_s": (statistics.median(result["rates"]), "1/s"),
                "peak_rss_mb": (peak_rss_mb(), "MB"),
            }
        print(f"speed reference loop mean {statistics.mean(probe.samples)!r} s over "
              f"{len(probe.samples)} samples, slowdown {probe.slowdown()!r}")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} {value!r} {unit}")
    print(f"{args.workload} failed_share {tally.failed_share!r} share "
          f"({tally.failed}/{tally.attempted})")
    for message in tally.messages[:20]:
        print(f"check failed: {message}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
