"""CLI: experiment listing and fast runs."""

import pytest

from repro.cli import EXPERIMENTS, build_parser, main
from repro.experiments.campaign import (
    CampaignEngine,
    CampaignTask,
    resolve_engine,
)


def _double(value: int) -> int:
    return 2 * value


def _explode(_value) -> None:
    raise RuntimeError("first-grid cell exploded")


def _two_grids(fast: bool) -> str:
    """A driver with two grids; the first has a failing cell."""
    engine = resolve_engine(None)
    first = engine.run_tasks(
        [CampaignTask(_double, 1), CampaignTask(_explode, 2)]
    )
    second = engine.run_tasks([CampaignTask(_double, 3)])
    return f"first={first} second={second}"


def _two_grids_then_crash(fast: bool) -> str:
    """Like :func:`_two_grids`, then trips over the failed cell."""
    engine = resolve_engine(None)
    [failed] = engine.run_tasks([CampaignTask(_explode, 1)])
    engine.run_tasks([CampaignTask(_double, 3)])
    return str(failed + 1)


class TestParser:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

    def test_unknown_experiment_fails(self, capsys):
        assert main(["run", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestFailureReport:
    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_failures_of_every_grid_are_reported(
        self, workers, capsys, monkeypatch
    ):
        monkeypatch.setitem(EXPERIMENTS, "two-grids", ("two grids", _two_grids))
        assert main(["run", "two-grids", "--workers", workers]) == 1
        captured = capsys.readouterr()
        assert "first=[2, None] second=[6]" in captured.out
        assert "[campaign] 1 scenario(s) FAILED:" in captured.err
        assert "first-grid cell exploded" in captured.err

    def test_a_crashing_driver_still_reports_failed_cells(
        self, capsys, monkeypatch
    ):
        monkeypatch.setitem(
            EXPERIMENTS, "crash", ("crash", _two_grids_then_crash)
        )
        with pytest.raises(TypeError):
            main(["run", "crash"])
        err = capsys.readouterr().err
        assert "[campaign] 1 scenario(s) FAILED:" in err
        assert "first-grid cell exploded" in err


    @pytest.mark.parametrize(
        "experiment",
        [("two-grids", _two_grids), ("crash", _two_grids_then_crash)],
        ids=["clean-exit", "crash"],
    )
    def test_the_engine_is_closed_on_every_way_out(
        self, experiment, capsys, monkeypatch
    ):
        name, driver = experiment
        monkeypatch.setitem(EXPERIMENTS, name, (name, driver))
        closed = []
        original = CampaignEngine.close

        def recording_close(engine):
            closed.append(engine._pool is not None)
            original(engine)

        monkeypatch.setattr(CampaignEngine, "close", recording_close)
        try:
            main(["run", name, "--workers", "2"])
        except TypeError:
            pass  # the crashing driver
        assert closed == [True]  # once, with its pool still up


class TestScaleOptions:
    @pytest.mark.parametrize(
        "option",
        [["--chunk-ues", "0"], ["--shards", "0"], ["--shards", "2,x"]],
        ids=["chunk-ues-0", "shards-0", "shards-not-int"],
    )
    def test_bad_scale_option_exits_2(self, option, capsys):
        assert main(["run", "scale", *option]) == 2
        err = capsys.readouterr().err
        assert f"{option[0]} must be" in err and "positive" in err

    def test_schedule_flag_is_gone(self, capsys):
        # One work-stealing schedule: there is nothing left to choose.
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "scale", "--schedule", "steal"]
            )


class TestFastRuns:
    @pytest.mark.parametrize(
        "experiment", ["fig18", "transport", "mobility", "fig15"]
    )
    def test_fast_run_produces_output(self, experiment, capsys):
        assert main(["run", experiment, "--fast"]) == 0
        out = capsys.readouterr().out
        assert f"===== {experiment}:" in out
        assert len(out.splitlines()) > 3

    def test_fig17_fast_reports_sizes(self, capsys):
        assert main(["run", "fig17", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "tlc-poc" in out
        assert "796" in out

    def test_fig04_fast_timeseries(self, capsys):
        assert main(["run", "fig04", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "final gap" in out


class TestFaultCampaignCli:
    def test_faults_experiment_listed(self, capsys):
        main(["list"])
        assert "faults" in capsys.readouterr().out

    def test_fast_fault_run_reports_guarantees(self, capsys):
        assert main(["run", "faults", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "no-faults" in out
        assert "cells ran" in out
        # Every cell upholds the bound and reconciles exactly.
        assert "NO" not in out

    def test_fault_plan_file_overrides_the_grid(self, capsys, tmp_path):
        from repro.faults.plan import FaultKind, single_fault_plan

        plan = single_fault_plan(FaultKind.GATEWAY_CRASH, 0.4)
        path = tmp_path / "plan.json"
        path.write_text(plan.to_json(), encoding="utf-8")
        assert main(["run", "faults", "--fast", "--faults", str(path)]) == 0
        out = capsys.readouterr().out
        assert plan.name in out
        assert "no-faults" not in out  # the grid was replaced

    def test_unreadable_plan_file_fails_cleanly(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        assert main(["run", "faults", "--faults", str(bad)]) == 2
        assert "cannot load fault plan" in capsys.readouterr().err

    def test_fail_fast_flag_parses(self):
        args = build_parser().parse_args(
            ["run", "faults", "--fast", "--fail-fast"]
        )
        assert args.fail_fast is True
        args = build_parser().parse_args(["run", "faults"])
        assert args.fail_fast is False


class TestProfileFlag:
    def test_profile_prints_top_functions(self, capsys):
        assert main(["run", "fig18", "--fast", "--profile"]) == 0
        out = capsys.readouterr().out
        assert "[profile] top 25 functions by cumulative time:" in out
        assert "cumulative" in out  # the pstats table header

    def test_profile_out_writes_loadable_stats(self, capsys, tmp_path):
        import pstats

        stats_file = tmp_path / "run.prof"
        assert main(
            [
                "run",
                "fig18",
                "--fast",
                "--profile",
                "--profile-out",
                str(stats_file),
            ]
        ) == 0
        out = capsys.readouterr().out
        assert f"cProfile stats written to {stats_file}" in out
        stats = pstats.Stats(str(stats_file))
        assert stats.total_calls > 0

    def test_profile_out_alone_enables_profiling(self, capsys, tmp_path):
        stats_file = tmp_path / "run.prof"
        assert main(
            ["run", "fig18", "--fast", "--profile-out", str(stats_file)]
        ) == 0
        assert stats_file.exists()
        assert "[profile]" in capsys.readouterr().out

    def test_no_profiling_by_default(self, capsys):
        assert main(["run", "fig18", "--fast"]) == 0
        assert "[profile]" not in capsys.readouterr().out
