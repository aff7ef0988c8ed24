"""Smoke and shape tests for the experiment drivers (small scales)."""

from __future__ import annotations

import pytest

from repro.experiments.runner import EXPERIMENTS, PAPER_SET
from repro.workloads.datasets import gauss3, weather4, weather6


@pytest.fixture(scope="module")
def tiny_weather4():
    return weather4(scale=0.12, seed=1)


@pytest.fixture(scope="module")
def tiny_weather6():
    return weather6(scale=0.25, seed=2)


@pytest.fixture(scope="module")
def tiny_gauss3():
    return gauss3(scale=0.12, seed=3)


class TestTable3:
    def test_rows_for_all_datasets(self):
        from repro.experiments.table3 import run

        result = run(scale=0.12)
        assert [row[0] for row in result.rows] == ["weather4", "weather6", "gauss3"]
        for row in result.rows:
            assert row[2] > 0 and row[3] > 0


class TestFig10and11:
    def test_uni_shape(self, tiny_weather4):
        from repro.experiments.fig10_11 import run

        result = run(dataset=tiny_weather4, num_queries=400, validate_sample=20)
        by_name = {row[0]: row for row in result.rows}
        # eCube starts above DDC (two prefix queries vs direct algorithm)
        assert by_name["eCube"][1] > by_name["DDC"][1]
        # eCube decreases; PS stays far below both
        assert by_name["eCube"][2] < by_name["eCube"][1]
        assert by_name["PS"][3] < by_name["DDC"][3]
        assert len(result.series["eCube"]) == 400 // 50

    def test_skew_converges_faster(self, tiny_weather4):
        from repro.experiments.fig10_11 import run

        uni = run(dataset=tiny_weather4, workload="uni", num_queries=400,
                  validate_sample=5)
        skew = run(dataset=tiny_weather4, workload="skew", num_queries=400,
                   validate_sample=5)

        def drop(result):
            row = {r[0]: r for r in result.rows}["eCube"]
            return row[1] - row[2]

        assert drop(skew) > 0

    def test_rejects_nothing_silently(self, tiny_weather4):
        from repro.experiments.fig10_11 import run

        result = run(dataset=tiny_weather4, num_queries=120, validate_sample=120)
        assert result.notes["queries"] == 120


class TestFig12and13:
    def test_copy_cost_area_positive(self, tiny_weather6):
        from repro.experiments.fig12_13 import run

        result = run(dataset=tiny_weather6)
        by_name = {row[0]: row for row in result.rows}
        assert by_name["with copy"][5] > by_name["without copy"][5]
        assert result.notes["total copy cost (area between curves)"] > 0

    def test_curves_sorted(self, tiny_gauss3):
        from repro.experiments.fig12_13 import run

        result = run(dataset=tiny_gauss3)
        for series in result.series.values():
            assert series == sorted(series)


class TestTable4:
    def test_small_constants(self):
        from repro.experiments.table4 import run

        result = run(names=("gauss3",), scale=0.12)
        rows = {(row[0], row[1]): row for row in result.rows}
        in_memory = rows[("gauss3", "in-memory")]
        disk = rows[("gauss3", "disk")]
        assert in_memory[3] <= 6  # max stays a small constant
        assert disk[3] <= 1  # disk never exceeds one


class TestFig14:
    def test_tree_cost_scales_with_points_array_stays_flat(self):
        """The Figure 14 mechanism: the index's cost grows with the number
        of stored points while the pre-aggregated array's stays
        polylogarithmic, so the gap widens with data size (at tiny scales
        the tree can even win -- it has almost no leaves)."""
        from repro.experiments.fig14 import run

        small = run(dataset=weather6(scale=0.25, seed=2), num_queries=250)
        large = run(dataset=weather6(scale=0.5, seed=2), num_queries=250)

        def mean(result, name):
            return {row[0]: row for row in result.rows}[name][1]

        ratio_small = mean(small, "R*-tree") / mean(small, "DDC array")
        ratio_large = mean(large, "R*-tree") / mean(large, "DDC array")
        assert ratio_large > ratio_small
        # array cost barely moves across a ~20x cell-count increase
        assert mean(large, "DDC array") <= 3 * mean(small, "DDC array")


class TestAblations:
    def test_copy_budget(self):
        from repro.experiments.ablation_copy_budget import run

        result = run(dataset=gauss3(scale=0.1), multipliers=(0.0, 2.0))
        assert result.rows[0][2] >= result.rows[1][2]  # more budget, fewer laggards

    def test_dims(self):
        from repro.experiments.ablation_dims import run

        result = run(dims=(2, 3), num_queries=300)
        assert len(result.rows) == 2

    def test_directory(self):
        from repro.experiments.ablation_directory import run

        result = run(sizes=(100, 1000), lookups=200)
        assert result.rows[0][1] < result.rows[1][1]  # cost grows with n

    def test_out_of_order(self):
        from repro.experiments.ablation_out_of_order import run

        result = run(fractions=(0.0, 0.3), shape=(64, 64), num_queries=60)
        clean = result.rows[0]
        dirty = result.rows[1]
        assert dirty[2] > clean[2]  # buffered updates make queries dearer
        assert dirty[3] == pytest.approx(clean[3], rel=0.05)  # drain restores

    def test_out_of_order_rows_pinned(self):
        # The G_d reference R-tree is built by the first metered read, in
        # arrival order: these are the costs of the tree that eager
        # per-update inserts built (recorded at cbd9a99).
        from repro.experiments.ablation_out_of_order import run

        assert run(shape=(64, 128), num_queries=80).rows == [
            (0.0, 0, 22.0, 22.0),
            (0.05, 37, 24.325, 22.0),
            (0.2, 111, 25.7375, 22.0),
            (0.5, 299, 27.3625, 22.0),
        ]

    def test_adaptivity(self):
        from repro.experiments.ablation_adaptivity import run

        result = run(
            dataset=weather4(scale=0.14, seed=4),
            training_queries=600,
            probe_queries=80,
        )
        rows = {row[0]: row for row in result.rows}
        hot = rows["hot (trained)"]
        cold = rows["cold (untouched)"]
        assert hot[1] < cold[1]  # trained region cheaper for eCube
        assert hot[1] < hot[2]  # and cheaper than DDC there

    def test_molap_rolap(self):
        from repro.experiments.ablation_molap_rolap import run

        result = run(
            shape=(32, 12, 12), densities=(0.01, 0.1), num_queries=80
        )
        low, high = result.rows
        # eCube flat, ROLAP grows with density
        assert high[3] > 3 * low[3]
        assert high[2] < 3 * low[2] + 10

    def test_sparse(self):
        from repro.experiments.ablation_sparse import run

        result = run(shape=(32, 256), density=0.01, num_queries=40)
        assert len(result.rows) == 6


class TestRunner:
    def test_registry_covers_paper_set(self):
        for name in PAPER_SET:
            assert name in EXPERIMENTS

    def test_unknown_experiment_rejected(self):
        from repro.experiments.runner import run_experiments

        with pytest.raises(KeyError):
            run_experiments(["fig99"])

    def test_format_table(self):
        from repro.experiments.common import ExperimentResult

        result = ExperimentResult("demo", ["a", "b"], [(1, 2.5)], notes={"k": "v"})
        text = result.format_table()
        assert "demo" in text and "2.50" in text and "# k: v" in text

    def test_format_empty(self):
        from repro.experiments.common import ExperimentResult

        assert "no tabular rows" in ExperimentResult("x").format_table()

    def test_write_csv(self, tmp_path):
        from repro.experiments.common import ExperimentResult

        result = ExperimentResult(
            "Figure 99: demo",
            headers=["a", "b"],
            rows=[(1, 2.5), (3, 4.0)],
            series={"eCube": [1.0, 2.0, 3.0]},
        )
        written = result.write_csv(tmp_path)
        assert len(written) == 2
        rows_file = tmp_path / "figure_99_demo.csv"
        assert rows_file.exists()
        content = rows_file.read_text().splitlines()
        assert content[0] == "a,b"
        assert content[1] == "1,2.5"
        series_file = tmp_path / "figure_99_demo.ecube.csv"
        assert series_file.read_text().splitlines()[1] == "0,1.0"

    def test_format_series_ascii_chart(self):
        from repro.experiments.common import ExperimentResult

        result = ExperimentResult(
            "Figure 98",
            series={"eCube": [10.0] * 10 + [1.0] * 10},
        )
        chart = result.format_series(width=20, height=4)
        assert "eCube" in chart
        lines = [l for l in chart.splitlines() if l.startswith("|")]
        assert len(lines) == 4
        # tall at the start, short at the end
        assert lines[0].count("#") < lines[-1].count("#")
        assert "no series" in ExperimentResult("x").format_series()

    def test_runner_series_flag(self, capsys):
        from repro.experiments.runner import run_experiments

        run_experiments(
            ["ablation-directory"], show_series=True, sizes=(100,), lookups=50
        )
        out = capsys.readouterr().out
        assert "directory lookup cost" in out  # tabular still printed
        # ablation-directory records no series; exercise the chart path
        from repro.experiments.fig12_13 import run
        from repro.workloads.datasets import gauss3

        result = run(dataset=gauss3(scale=0.1, seed=3))
        chart = result.format_series()
        assert "with copy" in chart
        assert any(line.startswith("|") for line in chart.splitlines())

    def test_cli_list(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "table3" in out and "ablation-sparse" in out

    def test_cli_runs_one_experiment_with_csv(self, tmp_path, capsys):
        from repro.experiments.__main__ import main

        assert main(["ablation-directory", "--csv", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "directory lookup cost" in out
        assert list(tmp_path.glob("*.csv"))
