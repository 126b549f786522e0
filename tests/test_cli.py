"""CLI smoke tests (fast subcommands only)."""

import json
import os
import subprocess
import sys

import pytest

import repro
from repro.cli import SCENARIOS, build_parser, main


def test_info(capsys):
    assert main(["info"]) == 0
    out = capsys.readouterr().out
    assert "SurfOS" in out
    assert "AutoMS" in out
    # The command list comes from the parser, so no command is left out.
    commands = out.split("Commands: ")[1]
    assert "mobility" in commands and "load" in commands


def test_table1(capsys):
    assert main(["table1"]) == 0
    out = capsys.readouterr().out
    assert "mmWall" in out and "LAIA" in out


def test_fig6(capsys):
    assert main(["fig6"]) == 0
    out = capsys.readouterr().out
    assert "VR gaming" in out
    assert "matches expected: True" in out


def test_translate(capsys):
    assert main(["translate", "charge my phone please"]) == 0
    out = capsys.readouterr().out
    assert "init_powering('phone'" in out


def test_translate_not_understood(capsys):
    assert main(["translate", "what a lovely day"]) == 1


def test_recommend(capsys):
    assert main(["recommend", "passive surface for 60 GHz"]) == 0
    out = capsys.readouterr().out
    assert "AutoMS" in out


def test_trace_runs_and_report_round_trips(tmp_path, capsys):
    jsonl = str(tmp_path / "trace.jsonl")
    assert (
        main(["trace", "--iterations", "5", "--rounds", "1", "--jsonl", jsonl])
        == 0
    )
    out = capsys.readouterr().out
    assert "Telemetry: spans" in out
    assert "reoptimize/channel-build" in out
    assert "total_s" in out

    assert main(["trace", "--report", jsonl]) == 0
    out = capsys.readouterr().out
    assert "Telemetry report: spans" in out
    assert "reoptimize/push" in out


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


#: The fastest arguments of each table scenario, and a line its
#: rendering always prints.
FAST_ARGS = {
    "faults": (["--panels", "6"], "recovery within bound"),
    "fleet": ([], "Fleet"),
    "mobility": (["--steps", "5", "--panel-size", "6"], "prefetch hit rate"),
    "load": (["--requests", "2000", "--seed", "3"], "Load run: poisson x2000"),
}


def test_fast_args_cover_the_table():
    assert set(FAST_ARGS) == set(SCENARIOS)


@pytest.mark.parametrize("scenario", sorted(FAST_ARGS))
def test_scenario_runs_and_writes_artifacts(scenario, tmp_path, capsys):
    args, rendered = FAST_ARGS[scenario]
    jsonl = tmp_path / "run.jsonl"
    json_path = tmp_path / "run.json"
    argv = [scenario, *args, "--jsonl", str(jsonl), "--json", str(json_path)]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert rendered in out
    assert f"{SCENARIOS[scenario].artifact_label} written to {json_path}" in out
    assert out.endswith(f"sim-only event log written to {jsonl}\n")

    summary = json.loads(json_path.read_text())
    assert summary
    if scenario == "mobility":
        assert summary["reactions"] > 0
        assert summary["leg_cache_full_purges"] == 0
    assert jsonl.read_text().count("\n") > 0


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--window", "-1"], "error: --window"),
        # A sweep runs one harness per rate, so it has no one log to write.
        (["--sweep", "--sweep-rates", "5,10", "--jsonl", "sweep.jsonl"], "error: --sweep"),
        # It replays seeded Poisson arrivals and gates nothing.
        (["--sweep", "--sweep-rates", "5,10", "--model", "flash-crowd"], "drop --model"),
        (["--sweep", "--sweep-rates", "5,10", "--slo", "p99=0.0001"], "drop --slo"),
        (["--sweep", "--sweep-rates", "5,10", "--record-trace", "t.jsonl"], "drop --record-trace"),
    ],
)
def test_load_rejects_bad_arguments(argv, message, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["load", "--requests", "200", *argv]) == 2
    assert message in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_closed_stdout_pipe_exits_quietly():
    # The reader is gone before the command writes: printing must end in
    # exit 1 with no traceback, not a BrokenPipeError.
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "table1"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": path},
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == b""


def test_determinism_passes_on_a_seeded_scenario(capsys):
    assert main(["determinism", "load", "--requests", "2000", "--seed", "3"]) == 0
    assert "load deterministic" in capsys.readouterr().out


def _fake_runs(monkeypatch, logs, returncode=0):
    """Stand-in for the two scenario runs: run i writes ``logs[i]``."""
    runs = []

    def run(argv, **kwargs):
        assert argv[-2] == "--jsonl"
        with open(argv[-1], "w") as fh:
            fh.write(logs[len(runs)])
        runs.append(argv)
        return subprocess.CompletedProcess(argv, returncode)

    monkeypatch.setattr(subprocess, "run", run)
    return runs


@pytest.mark.parametrize(
    "logs, line",
    [(["a\nb\nc\nd\n", "a\nb\nX\nd\n"], 3), (["a\nb\n", "a\n"], 2)],
)
def test_determinism_reports_the_first_differing_line(logs, line, monkeypatch, capsys):
    _fake_runs(monkeypatch, logs)
    assert main(["determinism", "faults", "--seed", "7"]) == 1
    assert f"differ at line {line}" in capsys.readouterr().err


def test_determinism_fails_on_an_empty_log(monkeypatch, capsys):
    runs = _fake_runs(monkeypatch, ["", ""])
    assert main(["determinism", "faults"]) == 1
    assert "run 1 wrote no event log" in capsys.readouterr().err
    assert len(runs) == 1


def test_determinism_fails_when_a_run_fails(monkeypatch, capsys):
    _fake_runs(monkeypatch, ["a\n", "a\n"], returncode=1)
    assert main(["determinism", "faults"]) == 1
    assert "run 1 exited 1" in capsys.readouterr().err


def test_determinism_passes_the_scenario_arguments(monkeypatch, capsys):
    runs = _fake_runs(monkeypatch, ["a\n", "a\n"])
    assert main(["determinism", "fleet", "--seed", "7", "--json", "f.json"]) == 0
    assert [argv[3:7] for argv in runs] == [["fleet", "--seed", "7", "--json"]] * 2
    assert runs[0][-1] != runs[1][-1]


@pytest.mark.parametrize("flag", [["--jsonl", "x.jsonl"], ["--jsonl=x.jsonl"]])
def test_determinism_rejects_a_caller_jsonl(flag, capsys):
    assert main(["determinism", "load", "--requests", "10", *flag]) == 2
    assert "error:" in capsys.readouterr().err


def test_determinism_scenarios_come_from_the_table():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["determinism", "pipeline"])


def test_mobility_rejects_unknown_scene():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["mobility", "--scene", "penthouse"])


def test_fleet_scene_flag():
    args = build_parser().parse_args(["fleet", "--scene", "office"])
    assert args.scene == "office"
    assert build_parser().parse_args(["fleet"]).scene == "two-room"


@pytest.mark.parametrize(
    "argv",
    [
        ["trace", "--eval-pool"],
        ["mobility", "--workers", "4"],
        ["mobility", "--eval-pool"],
        ["fleet", "--workers", "2"],
    ],
)
def test_worker_pool_flags_are_gone(argv):
    # Scenarios run serially: no command exposes a worker count.
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    assert exc.value.code != 0
