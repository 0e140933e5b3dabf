"""The bytes of the output layer, pinned by sha256: fixed runs of literal
floats go through ``write_trajectory`` and ``emit_plots``.  Only ``repr``,
``%.2f``/``%.6g`` and IEEE + - * / reach these bytes, so the digests do not
depend on the host or the Python version."""

import csv
import hashlib
from datetime import date

import numpy as np

from epigrowth import data_io, plotting
from epigrowth.scenarios import Trajectory

LITERALS = [0.1, 2.5, -0.0, 5e-324, 1e308, 3.0, 1.25, 7e-310, 42.0, 0.3333333333333333, 1e-05, 123456.789]

# (name, first day, number of days): the second run overlaps the first,
# the third touches the second and the fourth, a constant, is disjoint;
# the second name needs CSV quoting and XML escaping
RUNS = [("base", date(2020, 2, 26), 6), ('a,"b<&>', date(2020, 2, 29), 5),
        ("touching", date(2020, 3, 5), 3), ("constant", date(2020, 4, 1), 1)]
VARIABLES = ["N", "Y", "C", "p"]

# recorded before the trajectory and chart-data writers became one
DIGESTS = {
    "charts/C.svg": "0899e83ab1e7cea04348e52854c407a7872ff0edd2fd28a85d708a639a9017ad",
    "charts/C_data.csv": "6831f05afed23000e4534e38c83a7a21826838e3512e6e9400463ba21511d288",
    "charts/N.svg": "66f6b4bf3c4685890ea4b390305f0d6587608b02ffdfe72646358fa80cae3e00",
    "charts/N_data.csv": "66ea4fc52984fcf1c1c4e7e5055bae5631330f47748662d6b4a4005f00ea22bd",
    "charts/Y.svg": "8f3bd949d9cce858c13e8885da26b582b750b4ab8ecd30f979baeddc8af47baf",
    "charts/Y_data.csv": "d628b49ea2c392f56b1daf13f0fddc2f25d18217d6bafc92990e6ff30724383b",
    "charts/p.svg": "765ec80e6ec030b4048a3f17368d1f2d0649b99a32b83158bd4019682fc04f0d",
    "charts/p_data.csv": "aebe06f8068980cdb7d9d8bfd5eb8c8cefb11dc64a6490d6e10ab54f04ec8cf6",
    "constant/Y.svg": "af3bc1690b9198a202a7f4bd263268ffade0790464e27b3f61a976b55468ed10",
    "constant/Y_data.csv": "a8939f972d77aaba3f9cfff2cbd509b278de5c13cc2eda21caf6c51c1bb5b8ff",
    "run0_trajectory.csv": "dffe19d0a703d49991d5648add110ccc06dc9aa24c7ad04ec4210959c68a4b25",
    "run1_trajectory.csv": "b584fe273cf4154993e5cdcf4d047243cb90bb15aebe2303f60b32c54a45866f",
    "run2_trajectory.csv": "1b71c7b17d5ceb942761ce99e18a8404c33900f508147e86b43e72929e24c7f0",
    "run3_trajectory.csv": "d69ca5e9bbffc47881396e4cf7ff52ee19a7dbbe0b78aa649b1614d255af510d",
}


def literal_run(r: int, name: str, first: date, n: int) -> Trajectory:
    """Run ``r``: column j holds the literals from position 3r + j on, or
    2.0 on every day of the constant run."""
    days = range(first.toordinal(), first.toordinal() + n)
    columns = {column: np.array([2.0] * n if name == "constant" else
                                [LITERALS[(3 * r + j + k) % len(LITERALS)] for k in range(n)])
               for j, column in enumerate(data_io.TRAJECTORY_HEADER[1:])}
    return Trajectory(scenario_name=name, days=days, welfare=0.0, **columns)


def write_outputs(out_dir) -> dict:
    """Write every run's trajectory CSV, the charts of all runs and the
    chart of the constant run alone into ``out_dir``; returns each file's
    sha256 by its path relative to ``out_dir``."""
    runs = [literal_run(r, *run) for r, run in enumerate(RUNS)]
    for i, t in enumerate(runs):
        data_io.write_trajectory(t, out_dir / f"run{i}_trajectory.csv")
    assert plotting.emit_plots(runs, VARIABLES, out_dir / "charts", jobs=1) == [
        name for var in VARIABLES for name in (f"{var}.svg", f"{var}_data.csv")]
    plotting.emit_plots(runs[-1:], ["Y"], out_dir / "constant", jobs=1)
    return {path.relative_to(out_dir).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out_dir.rglob("*")) if path.is_file()}


def read_rows(path) -> list:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestOutputBytes:
    def test_digests(self, tmp_path):
        assert write_outputs(tmp_path) == DIGESTS

    def test_chart_data_is_trajectory_columns(self, tmp_path):
        # a run's column of {var}_data.csv holds its trajectory CSV's cells
        # on its days and is empty on the other days of the chart
        write_outputs(tmp_path)
        for var in VARIABLES:
            header, *rows = read_rows(tmp_path / "charts" / f"{var}_data.csv")
            assert header == ["date"] + [name for name, _, _ in RUNS]
            for i in range(len(RUNS)):
                traj_header, *traj_rows = read_rows(tmp_path / f"run{i}_trajectory.csv")
                cells = {row[0]: row[traj_header.index(var)] for row in traj_rows}
                assert [row[i + 1] for row in rows] == [cells.get(row[0], "") for row in rows]
                assert set(cells) <= {row[0] for row in rows}
