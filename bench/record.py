"""Record the reference values that the benchmark's checks compare against.

    python3 bench/record.py --seeds 0-9

Rewrites ``bench/reference.json``.  Run it only at a commit whose outputs
are known to be right: every later run is checked against these values.
Outputs are recorded only if they pass every check that does not need a
reference.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

from checks import SUMMARY_KEYS, Tally
from run import REFERENCE, ROOT, load_program
from workloads import Context, OutputRoundtrip, ScenarioLoop, SweepStart, spec_key

LOOP_SCENARIOS = 24  # more than one scenario-loop run gets through


def seed_range(text: str) -> list:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-9", help="inclusive range, as in 0-9")
    args = parser.parse_args(argv)

    ep = load_program(ROOT)
    work_dir = ROOT / ".bench_work" / "record"
    ctx = Context(ROOT, work_dir, {})
    reference = {ScenarioLoop.name: {}, SweepStart.name: {}, OutputRoundtrip.name: {"plots": {}}}
    tally = Tally()
    try:
        for seed in seed_range(args.seeds):
            loop = ScenarioLoop(ep, ctx, seed)
            for i in range(LOOP_SCENARIOS):
                output = loop.run_round(i)
                loop.check(i, output, tally)
                reference[loop.name][spec_key(loop.specs[i])] = loop.summary(output)

            sweep = SweepStart(ep, ctx, seed)
            sweep.in_process = True
            output = sweep.run_round(0)
            rows = sweep.rows(output[1])
            sweep.check(0, output, tally)
            for row in rows:
                reference[sweep.name][row["scenario"]] = {
                    k: row[k] if k == "peak_date" else float(row[k]) for k in SUMMARY_KEYS}

            roundtrip = OutputRoundtrip(ep, ctx, seed)
            output = roundtrip.run_round(0)
            reference[roundtrip.name]["params_digest"] = output[0].digest()
            reference[roundtrip.name]["plots"][str(seed)] = roundtrip.plot_hashes(output)
            roundtrip.check(0, output, tally)
            print(f"seed {seed}: {tally.attempted} checked, {tally.failed} failed", flush=True)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if tally.failed:
        print("\n".join(tally.messages), file=sys.stderr)
        return 1
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
