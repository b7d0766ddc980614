"""Tests for the repro-experiments command-line interface."""

import os
import pathlib
import subprocess
import sys

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_commands_parse(self):
        parser = build_parser()
        for command in (
            ["intro"],
            ["convergence", "--priors", "0.8"],
            ["relative-error", "--max-extra-peers", "2"],
            ["cycle-length", "--max-length", "6"],
            ["fault-tolerance", "--repetitions", "2"],
            ["real-world", "--thetas", "0.5"],
            ["baseline"],
            ["schedules"],
            ["throughput", "--sizes", "8", "--repeats", "1"],
            ["throughput", "--mode", "embedded", "--sizes", "8", "--rounds", "5"],
            ["amortization", "--peers", "8"],
            ["scenario", "--peers", "6"],
        ):
            args = parser.parse_args(command)
            assert args.command == command[0]

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


class TestCommands:
    def test_intro_command(self, capsys):
        assert main(["intro"]) == 0
        output = capsys.readouterr().out
        assert "P(p2->p3 correct)" in output
        assert "p2->p4" in output

    def test_cycle_length_command(self, capsys):
        assert main(["cycle-length", "--max-length", "6", "--deltas", "0.1"]) == 0
        output = capsys.readouterr().out
        assert "Figure 10" in output
        assert "Δ=0.1" in output

    def test_relative_error_command(self, capsys):
        assert main(["relative-error", "--max-extra-peers", "1"]) == 0
        assert "Figure 9" in capsys.readouterr().out

    def test_baseline_command(self, capsys):
        assert main(["baseline"]) == 0
        output = capsys.readouterr().out
        assert "probabilistic" in output
        assert "chatty-web" in output

    def test_throughput_command(self, capsys):
        # Without --mode the throughput command times the lane engine.
        assert main(["throughput", "--sizes", "8", "--repeats", "1"]) == 0
        output = capsys.readouterr().out
        assert "Embedded throughput" in output
        assert "rounds/s" in output
        assert "messages/s" in output

    @pytest.mark.parametrize(
        "argv",
        [
            ["throughput", "--mode", "sum-product"],
            ["throughput", "--max-iterations", "5"],
        ],
    )
    def test_removed_throughput_options_rejected(self, argv):
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)

    def test_embedded_throughput_command(self, capsys):
        assert main(
            [
                "throughput", "--mode", "embedded",
                "--sizes", "8", "--repeats", "1", "--rounds", "5",
            ]
        ) == 0
        output = capsys.readouterr().out
        assert "rounds/s" in output
        assert "messages/s" in output

    def test_gossip_throughput_command(self, capsys):
        assert main(["throughput", "--mode", "gossip", "--sizes", "8"]) == 0
        output = capsys.readouterr().out
        assert "Gossip convergence" in output
        assert "msgs sent" in output
        assert "useful" in output
        assert "exact" in output

    def test_amortization_command(self, capsys):
        assert main(["amortization", "--peers", "8", "--attributes", "6"]) == 0
        output = capsys.readouterr().out
        assert "cached + sequential" in output
        assert "cached + batched" in output
        assert "plan compiles" in output

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["throughput", "--mode", "long-cycle", "--sizes", "1"], "ring needs at least 2"),
            (["throughput", "--mode", "gossip", "--sizes", "4"], "gossip workload needs"),
            (["scenario", "--peers", "0"], "need at least 3 peers"),
            (["throughput", "--sizes", "8", "--repeats", "0"], "at least one timed pair"),
            (["amortization", "--peers", "2"], "need at least 3 peers"),
        ],
    )
    def test_domain_errors_exit_with_one_usage_line(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        error = capsys.readouterr().err
        assert "Traceback" not in error
        assert error.splitlines()[-1].startswith("repro-experiments: error: ")
        assert message in error

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["throughput", "--mode", "local", "--rounds", "5"], "--rounds"),
            (["throughput", "--mode", "probe", "--send-probability", "0.5"], "--send-probability"),
            (["throughput", "--mode", "long-cycle", "--ttl", "3"], "--ttl"),
            (["throughput", "--mode", "gossip", "--ttl", "3"], "--ttl"),
            (["throughput", "--mode", "gossip", "--repeats", "2"], "--repeats"),
            (["throughput", "--mode", "embedded", "--fanout", "2"], "--fanout"),
            (["throughput", "--mode", "local", "--drop-probability", "0.1"], "--drop-probability"),
        ],
    )
    def test_flags_of_another_mode_rejected(self, capsys, argv, flag):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert f"{flag} does not apply to --mode {argv[2]}" in capsys.readouterr().err

    def test_scenario_command(self, capsys):
        assert main(["scenario", "--peers", "6", "--attributes", "6", "--seed", "3"]) == 0
        output = capsys.readouterr().out
        assert "precision" in output

    def test_convergence_command(self, capsys):
        assert main(["convergence"]) == 0
        assert "Figure 7" in capsys.readouterr().out


class TestClosedPipe:
    """``repro-experiments intro | head -1``: the reader closes the pipe
    after one line, and the CLI still exits 0 without a traceback."""

    @pytest.mark.parametrize("lines_read", [0, 1])
    def test_closed_stdout_pipe_exits_quietly(self, lines_read):
        src = pathlib.Path(__file__).parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        command = [sys.executable, "-m", "repro.cli", "intro"]
        if lines_read:
            process = subprocess.Popen(
                command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
            )
            assert process.stdout.readline()
            process.stdout.close()
            stderr = process.stderr.read()
            process.stderr.close()
        else:
            # A reader gone before the first line makes every write fail,
            # so the broken pipe is certain rather than a race.
            reader, writer = os.pipe()
            os.close(reader)
            with open(writer, "wb") as stdout:
                process = subprocess.Popen(
                    command, stdout=stdout, stderr=subprocess.PIPE, env=env
                )
            stderr = process.stderr.read()
            process.stderr.close()
        assert process.wait() == 0, stderr.decode()
        assert b"Traceback" not in stderr
