"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.__main__ import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_table1_args(self):
        args = build_parser().parse_args(["table1", "pcr"])
        assert args.cases == ["pcr"]

    def test_synth_defaults(self):
        # grid defaults to None so benchmark cases can bring their own
        # grid; assay files fall back to 10 at load time.
        args = build_parser().parse_args(["synth", "assay.txt"])
        assert args.grid is None and args.schedule is None
        assert args.supervised is False and args.checkpoint is None

    def test_synth_crash_safety_flags(self):
        args = build_parser().parse_args(
            ["synth", "pcr", "--supervised", "--checkpoint", "ckpt"]
        )
        assert args.supervised is True and args.checkpoint == "ckpt"

    def test_lifetime_args(self):
        args = build_parser().parse_args([
            "lifetime", "pcr", "--wear-budget", "500", "--mode", "adaptive",
            "--faults", "chip.valve_dead:2@3", "--faults", "chip.edge_dead",
        ])
        assert args.case == "pcr"
        assert args.wear_budget == 500
        assert args.mode == "adaptive"
        assert args.faults == ["chip.valve_dead:2@3", "chip.edge_dead"]


class TestCommands:
    def test_cases_listing(self, capsys):
        assert main(["cases"]) == 0
        out = capsys.readouterr().out
        assert "pcr" in out and "exponential_dilution" in out
        assert "15 ops" in out

    def test_figures_single(self, capsys):
        assert main(["figures", "fig2"]) == 0
        out = capsys.readouterr().out
        assert "dedicated mixer" in out

    def test_synth_from_file(self, tmp_path, capsys):
        assay = tmp_path / "assay.txt"
        assay.write_text(
            "# assay mini\n"
            "input a volume=4\n"
            "input b volume=4\n"
            "mix m a b duration=4 volume=8 ratio=1:1\n"
        )
        assert main(["synth", str(assay), "--grid", "8"]) == 0
        out = capsys.readouterr().out
        assert "vs 1max" in out
        assert "m ->" in out.replace("  ", " ")

    def test_synth_with_schedule_file(self, tmp_path, capsys):
        assay = tmp_path / "assay.txt"
        assay.write_text(
            "# assay mini\n"
            "input a volume=4\n"
            "input b volume=4\n"
            "mix m a b duration=4 volume=8 ratio=1:1\n"
        )
        schedule = tmp_path / "sched.txt"
        schedule.write_text("# schedule transport_delay=3\na @ 0\nb @ 0\nm @ 5\n")
        assert main(
            ["synth", str(assay), "--schedule", str(schedule), "--grid", "8"]
        ) == 0
        out = capsys.readouterr().out
        assert "vs 1max" in out

    def test_speedup_command(self, capsys):
        assert main(["speedup", "pcr"]) == 0
        out = capsys.readouterr().out
        assert "speedup" in out and "pcr" in out

    def test_lifetime_command(self, tmp_path, capsys):
        """The whole adaptive-lifetime loop through the CLI, with chaos."""
        out_file = tmp_path / "life.json"
        assert main([
            "lifetime", "fuzz:1:12", "--mapper", "greedy",
            "--wear-budget", "100000", "--max-runs", "4",
            "--mode", "adaptive", "--faults", "chip.valve_dead:1@1",
            "--events", "--json", str(out_file),
        ]) == 0
        out = capsys.readouterr().out
        assert "adaptive" in out
        assert "chaos faults fired" in out
        assert "valve-dead" in out
        import json

        data = json.loads(out_file.read_text())
        assert data["adaptive"]["runs"] == 4
        assert data["faults_fired"] == {"chip.valve_dead": 1}
        assert len(data["adaptive"]["final_health"]["dead_cells"]) == 1

    def test_synth_simulate_and_export(self, tmp_path, capsys):
        assay = tmp_path / "assay.txt"
        assay.write_text(
            "# assay mini\n"
            "input a volume=4\n"
            "input b volume=4\n"
            "mix m a b duration=4 volume=8 ratio=1:1\n"
        )
        out_file = tmp_path / "design.json"
        assert main([
            "synth", str(assay), "--grid", "8",
            "--simulate", "--export", str(out_file),
        ]) == 0
        out = capsys.readouterr().out
        assert "simulation: OK" in out
        assert out_file.exists()
        import json

        data = json.loads(out_file.read_text())
        assert data["assay"] == "mini"


class TestServeParser:
    def test_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1" and args.port == 7415
        assert args.grid == 10 and args.workers == 2
        assert args.queue_capacity == 16 and args.time_budget == 5.0
        assert args.cache_dir is None and args.supervised is False

    def test_overrides(self):
        args = build_parser().parse_args([
            "serve", "--port", "0", "--grid", "8", "--workers", "4",
            "--queue-capacity", "32", "--cache-dir", "cache",
        ])
        assert args.port == 0 and args.grid == 8
        assert args.workers == 4 and args.queue_capacity == 32
        assert args.cache_dir == "cache"


class TestExitCodes:
    """0 = success, 1 = operation failed, 2 = invalid user input —
    always a clean ``error:`` line on stderr, never a traceback."""

    def test_malformed_assay_file_exits_2(self, tmp_path, capsys):
        assay = tmp_path / "bad.txt"
        assay.write_text("input a\nfrobnicate x\n")
        assert main(["synth", str(assay), "--grid", "8"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "line 2" in err
        assert "frobnicate" in err
        assert "Traceback" not in err

    def test_malformed_schedule_file_exits_2(self, tmp_path, capsys):
        assay = tmp_path / "assay.txt"
        assay.write_text(
            "# assay mini\n"
            "input a volume=4\n"
            "input b volume=4\n"
            "mix m a b duration=4 volume=8 ratio=1:1\n"
        )
        schedule = tmp_path / "sched.txt"
        schedule.write_text("m at never\n")
        assert main(
            ["synth", str(assay), "--schedule", str(schedule), "--grid", "8"]
        ) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "line 1" in err

    def test_unknown_case_exits_2(self, capsys):
        assert main(["synth", "no-such-case-xyz"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "neither an assay file nor a benchmark case" in err

    def test_unknown_profile_case_exits_1(self, capsys):
        # profile takes registry cases only; an unknown one is an
        # operation failure surfaced as a ReproError.
        code = main(["profile", "no-such-case-xyz"])
        err = capsys.readouterr().err
        assert code in (1, 2)
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_bad_arguments_exit_2(self):
        # argparse's own convention, kept consistent.
        with pytest.raises(SystemExit) as info:
            main(["synth"])
        assert info.value.code == 2

    @pytest.mark.parametrize("command", ["profile", "lifetime"])
    def test_removed_mapper_choice_exits_2(self, command, capsys):
        # Both subcommands take their choices from one list; a mapper
        # name not on it is an argument error, not a traceback.
        with pytest.raises(SystemExit) as info:
            main([command, "pcr", "--mapper", "parallel"])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'parallel'" in err
        assert "Traceback" not in err
