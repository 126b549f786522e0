"""CLI smoke tests (fast subcommands only)."""

import pytest

from repro.cli import build_parser, main


def test_info(capsys):
    assert main(["info"]) == 0
    out = capsys.readouterr().out
    assert "SurfOS" in out
    assert "AutoMS" in out


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


def test_mobility_runs_and_writes_artifacts(tmp_path, capsys):
    jsonl = str(tmp_path / "mob.jsonl")
    json_path = str(tmp_path / "mob.json")
    assert (
        main(
            [
                "mobility",
                "--steps",
                "5",
                "--panel-size",
                "6",
                "--jsonl",
                jsonl,
                "--json",
                json_path,
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "prefetch hit rate" in out
    assert "scenario results written to" in out
    assert "sim-only event log written to" in out

    import json as _json

    summary = _json.loads(open(json_path).read())
    assert summary["reactions"] > 0
    assert summary["leg_cache_full_purges"] == 0
    assert open(jsonl).read().count("\n") > 0


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
