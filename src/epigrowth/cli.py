"""Command-line interface: calibrate, simulate, sweep, backtest, report.

All data outputs are deterministic for identical inputs and flags.  The
directory-oriented commands index everything they write in a
manifest.json.  calibrate and backtest read their datasets from --data,
or the EPIGROWTH_DATA_DIR environment variable, or ./data.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import calibration, data_io, plotting, scenarios
from .params import ModelParams


def _datasets(args, config: data_io.RunConfig, keys) -> tuple:
    """The data directory and the manifests of the datasets ``keys`` in it,
    in that order; DataFormatError naming every one of them that is
    missing, so a command stops before it loads any."""
    data_dir = Path(args.data or os.environ.get("EPIGROWTH_DATA_DIR") or "data")
    manifests = data_io.data_manifests(data_dir, config)
    manifests = {key: manifests[key] for key in keys}
    missing = [str(m.path) for m in manifests.values() if not m.path.exists()]
    if missing:
        raise data_io.DataFormatError(f"missing datasets: {missing}")
    return data_dir, manifests


def _refuse_overwrite(outputs, inputs) -> None:
    """DataFormatError naming both paths when one of ``outputs`` is one of
    ``inputs`` (None for an input not given), so that a command stops
    before it writes anything."""
    sources = {Path(path).resolve(): path for path in inputs if path is not None}
    for out in outputs:
        if Path(out).resolve() in sources:
            raise data_io.DataFormatError(f"output {out} would overwrite the input {sources[Path(out).resolve()]}")


def _load_params(args, config: data_io.RunConfig) -> ModelParams:
    if args.params:
        return data_io.read_params(args.params)
    return config.params


def _write_manifest(out_dir: Path, command: str, files: list, extra: dict | None = None) -> None:
    doc = {"command": command, "files": sorted(files)}
    if extra:
        doc.update(extra)
    data_io.write_json(doc, out_dir / "manifest.json")


def _metrics_row(run: scenarios.SweepRun) -> dict:
    sc = run.scenario
    row = {
        "scenario": sc.name,
        "policy_start": sc.schedule.start_date.isoformat() if sc.schedule else "",
        "intensity": sc.schedule.intensity_p if sc.schedule else 0.0,
        "duration_weeks": sc.schedule.duration_days // 7 if sc.schedule else 0,
        "error": run.error or "",
    }
    if run.metrics is not None:
        m = run.metrics.to_dict()
        row.update({key: m[key] for key in ("total_deaths", "peak_active_infections", "peak_date",
                                             "max_output_drop_pct", "welfare")})
        for day, ratio in m["output_ratio_at"].items():
            row[f"output_ratio_{day}"] = ratio
    return row


def cmd_calibrate(args) -> int:
    out = Path(args.out)
    report_path = out.with_name(out.stem + "_report.json")
    config = data_io.load_config(args.config)
    data_dir, manifests = _datasets(args, config, data_io.DATASETS)
    _refuse_overwrite([out, report_path], [m.path for m in manifests.values()])
    population, gdp, gcf = (data_io.load_annual_series(manifests[key]) for key in ("population", "gdp", "gcf"))
    cases, repairs = data_io.load_case_series(manifests["cases"])
    shortfall, reduction = data_io.load_tradeoff_panel(manifests["tradeoff"])

    constants = calibration.CalibrationConstants(
        population_fit_years=config.data["population_fit_years"], assumed=config.params)
    try:
        params, report = calibration.calibrate(
            population, gdp, gcf, cases, shortfall, reduction,
            case_population=config.data["case_population"], constants=constants,
        )
    except ValueError as exc:
        raise data_io.DataFormatError(f"{data_dir}: {exc}") from None
    report["case_data_repairs"] = repairs

    data_io.write_json({**params.to_dict(), "provenance": {
        "source": "epigrowth calibrate",
        "data_dir": str(data_dir),
        "digest": params.digest(),
    }}, out)
    data_io.write_json(report, report_path)
    print(f"wrote {out} and {report_path}")
    for name, table in report.items():
        if isinstance(table, dict) and "coefficients" in table:
            print(f"  {name}: coefficients={table['coefficients']} "
                  f"r_squared={table['r_squared']:.4f} n={table['n_obs']}")
    return 0


def _resolve_scenario(value: str, config: data_io.RunConfig) -> scenarios.Scenario:
    if value in config.scenarios:
        return config.scenarios[value]
    path = Path(value)
    if path.exists():
        raw = data_io.read_json_object(path, "scenario")
        name = raw.pop("name", path.stem)
        return scenarios.Scenario.from_dict(name, raw, str(path))
    raise data_io.DataFormatError(
        f"unknown scenario {value!r} (not a config scenario or a readable file); "
        f"known scenarios: {sorted(config.scenarios)}"
    )


def _token(text: str):
    """A --values item as an int or a float where it reads as one.  Digits
    that ``int`` refuses (more than 4,300 of them) stay text rather than
    becoming the float inf, so an error echoes what was typed."""
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            if text.strip().lstrip("+-").isdigit():
                break
    return text


def cmd_simulate(args) -> int:
    config = data_io.load_config(args.config)
    scenario = _resolve_scenario(args.scenario, config)
    out_dir = Path(args.out)
    traj_name = scenarios.TRAJECTORY_CSV.format(scenario.name)
    metrics_name = f"{scenario.name}_metrics.json"
    scenario_file = None if args.scenario in config.scenarios else args.scenario
    _refuse_overwrite([out_dir / name for name in (traj_name, metrics_name, "manifest.json")],
                      [args.config, args.params, scenario_file])
    params = _load_params(args, config)
    out_dir.mkdir(parents=True, exist_ok=True)

    trajectory = scenarios.run_scenario(scenario, params)
    baseline = config.scenario(scenarios.NO_PANDEMIC)
    reference = trajectory if scenario == baseline else scenarios.run_scenario(baseline, params)
    metrics = scenarios.summarize(
        trajectory, reference, scenarios.covered_dates(config.ratio_dates(), scenario, reference))

    data_io.write_trajectory(trajectory, out_dir / traj_name)
    data_io.write_json(metrics.to_dict(), out_dir / metrics_name)
    _write_manifest(out_dir, "simulate", [traj_name, metrics_name],
                    {"params_digest": params.digest(), "scenario": scenario.name})
    print(f"{scenario.name}: total deaths {metrics.total_deaths:.6g}, "
          f"peak {metrics.peak_date.isoformat()}, welfare {metrics.welfare:.6g}")
    print(f"wrote {out_dir / traj_name}")
    return 0


SWEEP_CHARTS = ["I", "D", "Y", "C"]


def cmd_sweep(args) -> int:
    config = data_io.load_config(args.config)
    grid = config.sweeps[args.axis]
    if args.values is not None:
        tokens = [_token(item) for item in args.values.split(",") if item != ""]
        grid = replace(grid, values=scenarios.parse_sweep_values(args.axis, tokens, "--values"))
    if args.jobs < 1:
        raise data_io.DataFormatError(f"--jobs: expected a whole number >= 1, got {args.jobs}")
    out_dir = Path(args.out)
    members = scenarios.sweep_members(args.axis, grid, config.scenario(scenarios.NO_INTERVENTION))
    _refuse_overwrite([out_dir / name for name in (
        *(scenarios.TRAJECTORY_CSV.format(member.name) for member in members),
        *(name.format(var) for var in SWEEP_CHARTS for name in plotting.CHART_FILES),
        "comparison.csv", "comparison.json", "manifest.json")], [args.config, args.params])
    params = _load_params(args, config)
    out_dir.mkdir(parents=True, exist_ok=True)

    # a failed baseline stops the sweep; a failed member only fills its row's error
    reference, runs = scenarios.sweep(
        params, args.axis, grid, config.scenario(scenarios.NO_PANDEMIC),
        config.scenario(scenarios.NO_INTERVENTION), config.ratio_dates(),
        jobs=args.jobs, out_dir=out_dir)
    members = runs[1:]
    errors = [run for run in members if run.error]
    for run in errors:
        print(f"error in {run.scenario.name}: {run.error}", file=sys.stderr)
    if len(errors) == len(members):
        raise RuntimeError("every sweep member failed")

    solved = [run.trajectory for run in runs if run.trajectory is not None]
    files = [scenarios.TRAJECTORY_CSV.format(run.scenario.name)
             for run in members if run.trajectory is not None]
    rows = [_metrics_row(run) for run in runs]
    data_io.write_table(rows, out_dir / "comparison.csv")
    data_io.write_json(rows, out_dir / "comparison.json")
    files.extend(["comparison.csv", "comparison.json"])
    files.extend(plotting.emit_plots([reference, *solved], SWEEP_CHARTS, out_dir, args.jobs))
    _write_manifest(out_dir, f"sweep --axis {args.axis}", files,
                    {"params_digest": params.digest()})
    print(f"wrote {len(files)} files to {out_dir}")
    return 0


BACKTEST_FILES = ["backtest_trajectory.csv", "backtest_report.json", "backtest_table.csv"]


def cmd_backtest(args) -> int:
    config = data_io.load_config(args.config)
    _, observed = _datasets(args, config, ("population", "gdp", "gcf"))
    out_dir = Path(args.out)
    _refuse_overwrite([out_dir / name for name in (*BACKTEST_FILES, "manifest.json")],
                      [args.config, args.params, *(m.path for m in observed.values())])
    params = _load_params(args, config)
    bt = config.backtest
    trajectory, report = scenarios.backtest(
        params, *map(data_io.load_annual_series, observed.values()),
        start_year=bt["start_year"], end_year=bt["end_year"], horizon=bt["horizon"],
    )
    tolerance = bt["tolerance"]
    report["tolerance"] = tolerance
    report["within_tolerance"] = bool(report["max_abs_gdp_error"] <= tolerance)

    out_dir.mkdir(parents=True, exist_ok=True)
    trajectory_csv, report_json, table_csv = (out_dir / name for name in BACKTEST_FILES)
    data_io.write_trajectory(trajectory, trajectory_csv)
    data_io.write_json(report, report_json)
    data_io.write_table(report["rows"], table_csv)
    _write_manifest(out_dir, "backtest", BACKTEST_FILES, {"params_digest": params.digest()})

    for row in report["rows"]:
        flag = "" if abs(row["gdp_relative_error"]) <= tolerance else "  <-- outside tolerance"
        print(f"{row['year']}: gdp error {row['gdp_relative_error']:+.3%}{flag}")
    print(f"max |gdp error| {report['max_abs_gdp_error']:.3%}, "
          f"drift {report['gdp_error_drift_per_year']:+.4%}/yr, "
          f"systematic drift: {report['systematic_drift']}")
    return 0


def cmd_report(args) -> int:
    variables = [v for v in (args.variables or "").split(",") if v]
    if not variables:
        raise data_io.DataFormatError("no variables given; use --variables Y,C,I")
    named = ", ".join(args.trajectories)
    try:
        plotting.check_variables(variables, scenarios.TRAJECTORY_COLUMNS)
    except ValueError as exc:
        raise data_io.DataFormatError(f"{named}: {exc}") from None
    out_dir = Path(args.out)
    _refuse_overwrite([out_dir / name.format(var) for var in variables for name in plotting.CHART_FILES]
                      + [out_dir / "manifest.json"], args.trajectories)
    trajectories = [data_io.read_trajectory(p) for p in args.trajectories]
    try:
        files = plotting.emit_plots(trajectories, variables, out_dir)
    except ValueError as exc:
        raise data_io.DataFormatError(f"{named}: {exc}") from None
    _write_manifest(out_dir, "report", files)
    print(f"wrote {len(files)} files to {out_dir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="epigrowth",
        description="Pandemic-in-a-growth-economy simulator and policy experiment runner.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", help="configuration overrides (JSON)")
    params = argparse.ArgumentParser(add_help=False)
    params.add_argument("--params", help="params JSON from calibrate (default: built-in values)")
    data = argparse.ArgumentParser(add_help=False)
    data.add_argument("--data", help="dataset directory (default: $EPIGROWTH_DATA_DIR or ./data)")

    p = sub.add_parser("calibrate", parents=[config, data],
                       help="estimate all model parameters from the bundled datasets")
    p.add_argument("--out", required=True,
                   help="output params JSON file; the regression report goes beside it, "
                        "as <out stem>_report.json")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("simulate", parents=[config, params],
                       help="run one scenario and write its trajectory and metrics")
    p.add_argument("--scenario", required=True, help="scenario name or scenario JSON file")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", parents=[config, params], help="run a policy sweep along one axis")
    p.add_argument("--axis", required=True, choices=list(scenarios.SWEEP_AXES))
    p.add_argument("--values", help="comma-separated values (default: configured grid); "
                                    "dates for start, fractions for intensity, weeks for duration")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--jobs", type=int, default=1,
                   help="solve both baselines and every member, write the members' "
                        "trajectory CSVs and render the charts in up to N processes")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("backtest", parents=[config, params, data],
                       help="historical no-pandemic run scored against observed data")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_backtest)

    p = sub.add_parser("report", help="render SVG charts from trajectory CSVs")
    p.add_argument("trajectories", nargs="+", help="trajectory CSV files")
    p.add_argument("--variables", required=True, help="comma-separated trajectory columns")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (data_io.DataFormatError, ValueError, KeyError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
