"""Tests for the CLI runner (the registry itself: tests/api)."""

import json

import pytest

from repro.analysis.runner import main


def test_cli_list(capsys):
    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    assert "fig11" in out and "tab2" in out


def test_cli_no_args_lists(capsys):
    assert main([]) == 0
    assert "fig3" in capsys.readouterr().out


def test_cli_runs_named_experiment(capsys):
    assert main(["tab1"]) == 0
    assert "Table I" in capsys.readouterr().out


def test_cli_unknown_experiment_is_clean_error(capsys):
    assert main(["fig99"]) == 2
    captured = capsys.readouterr()
    assert "unknown experiment" in captured.err
    assert "fig99" in captured.err
    assert captured.out == ""


def test_cli_unknown_mixed_with_known_runs_nothing(capsys):
    assert main(["tab1", "fig99"]) == 2
    captured = capsys.readouterr()
    assert "fig99" in captured.err
    assert "Table I" not in captured.out


def test_cli_json_output(capsys):
    assert main(["tab1", "--json"]) == 0
    out = capsys.readouterr().out
    data = json.loads(out)
    assert data["name"] == "tab1"
    assert data["metrics"]["total_mm2"] == pytest.approx(5.37, abs=0.01)
    assert "Table I" in data["text"]


def test_cli_json_multiple_experiments_is_json_lines(capsys):
    assert main(["tab1", "engine", "--json"]) == 0
    lines = [line for line in capsys.readouterr().out.splitlines() if line]
    assert [json.loads(line)["name"] for line in lines] == ["tab1", "engine"]


def test_route_options_global():
    from repro.analysis.runner import route_options

    routed = route_options({"scenes": ["lego"]}, ["fig2", "fig3"])
    assert routed == {"fig2": {"scenes": ["lego"]}, "fig3": {"scenes": ["lego"]}}


def test_route_options_per_experiment():
    from repro.analysis.runner import route_options

    routed = route_options(
        {"fig12": {"voxel_sizes": [1.0]}}, ["fig12", "tab1"]
    )
    assert routed == {"fig12": {"voxel_sizes": [1.0]}, "tab1": {}}


def test_route_options_empty_is_global():
    from repro.analysis.runner import route_options

    assert route_options({}, ["tab1"]) == {"tab1": {}}


def test_cli_scheduled_multi_experiment(capsys):
    # Two cheap experiments across a 2-worker pool: results must print in
    # request order with the scheduler telemetry on stderr.
    code = main(
        [
            "tab1",
            "claims",
            "--jobs",
            "2",
            "--json",
            "--options",
            '{"claims": {"scene": "lego"}}',
        ]
    )
    captured = capsys.readouterr()
    assert code == 0
    lines = [line for line in captured.out.splitlines() if line]
    assert [json.loads(line)["name"] for line in lines] == ["tab1", "claims"]
    assert "[scheduler] tab1:" in captured.err
    assert "[scheduler] claims:" in captured.err
    assert "[scheduler] mode=process jobs=2 shards=2 specs=2 " in captured.err
    assert "workers_used=" in captured.err


def test_cli_scheduled_prints_each_experiments_sweep_report(capsys):
    # Pool-side experiments run their sweeps serially in the worker; the
    # reports come back with the results.
    code = main(
        [
            "fig12",
            "fig13",
            "--jobs",
            "2",
            "--options",
            '{"fig12": {"scene": "lego", "voxel_sizes": [0.4], "resolution_scale": 0.5},'
            ' "fig13": {"scene": "lego", "cfus": [1], "ffus": [1], "resolution_scale": 0.5}}',
        ]
    )
    err = capsys.readouterr().err
    assert code == 0
    assert "[execution] fig12: mode=serial jobs=1 shards=1 specs=1 " in err
    assert "[execution] fig13: mode=serial jobs=1 shards=1 specs=1 " in err
    assert "[scheduler] mode=process jobs=2 shards=2 " in err


def test_cli_scheduled_rejected_options_is_clean_error(capsys):
    code = main(
        ["tab1", "claims", "--jobs", "2", "--options", '{"tab1": {"bogus": 1}}']
    )
    captured = capsys.readouterr()
    assert code == 2
    assert "rejected --options" in captured.err


def test_cli_single_experiment_keeps_sweep_level_jobs(capsys):
    code = main(
        [
            "fig13",
            "--jobs",
            "2",
            "--options",
            '{"scene": "lego", "cfus": [1, 2, 3, 4], "ffus": [1, 2, 3, 4], '
            '"resolution_scale": 0.5}',
        ]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert "Fig. 13" in captured.out
    # One scene context: the sweep runs in the calling session.
    assert "[execution] fig13: mode=serial jobs=2 shards=1" in captured.err


def test_cli_options_routed_to_unselected_experiment_is_clean_error(capsys):
    code = main(["fig12", "--options", '{"fig13": {"cfus": [1]}}'])
    captured = capsys.readouterr()
    assert code == 2
    assert "not" in captured.err and "fig13" in captured.err
    assert captured.out == ""


def test_cli_telemetry_json_dump(capsys, tmp_path):
    path = tmp_path / "telemetry.json"
    code = main(
        [
            "fig12",
            "--jobs",
            "2",
            "--telemetry-json",
            str(path),
            "--options",
            '{"scene": "lego", "voxel_sizes": [0.4, 0.8], "resolution_scale": 0.5}',
        ]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert f"[telemetry] wrote {path}" in captured.err
    payload = json.loads(path.read_text())
    execution = payload["scheduler"]["sweeps"]["fig12"]
    assert execution["specs"] == 2
    assert execution["jobs"] == 2
    assert execution["mode"] == "process"
    assert execution["shards"] == 2
    # One experiment runs in the caller, where its sweep used the pool.
    assert payload["scheduler"]["mode"] == "serial"
    assert payload["scheduler"]["shards"] == 1
    assert payload["experiments"]["fig12"]["elapsed_s"] > 0
    assert payload["session"]["service"]["requests_served"] >= 0
    assert payload["store"] is None


def test_cli_telemetry_json_with_scheduler(capsys, tmp_path):
    path = tmp_path / "telemetry.json"
    code = main(
        [
            "fig12",
            "fig13",
            "--jobs",
            "2",
            "--telemetry-json",
            str(path),
            "--cache-dir",
            str(tmp_path / "cache"),
            "--options",
            '{"fig12": {"scene": "lego", "voxel_sizes": [0.4], "resolution_scale": 0.5},'
            ' "fig13": {"scene": "lego", "cfus": [1], "ffus": [1], "resolution_scale": 0.5}}',
        ]
    )
    captured = capsys.readouterr()
    assert code == 0
    payload = json.loads(path.read_text())
    assert payload["scheduler"]["mode"] == "process"
    assert payload["scheduler"]["shards"] == 2
    assert payload["experiments"]["fig12"]["elapsed_s"] > 0
    assert payload["experiments"]["fig13"]["elapsed_s"] > 0
    # Each pool-side experiment's own (serial) sweep report comes back.
    assert set(payload["scheduler"]["sweeps"]) == {"fig12", "fig13"}
    assert payload["scheduler"]["sweeps"]["fig12"]["jobs"] == 1
    assert payload["store"]["entries"] >= 0
    assert payload["store"]["misses"] == 2
