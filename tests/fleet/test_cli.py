"""The ``search`` command line: axis parsing and the grid it reports."""

import argparse
import json

import pytest

from repro.analysis.runner import main as runner_main
from repro.api.session import Session
from repro.fleet.cli import parse_axis


class TestParseAxis:
    def test_values_are_coerced_to_numbers(self):
        assert parse_axis("num_hfu=1,2,4") == ("num_hfu", [1, 2, 4])
        assert parse_axis("sram_scale=0.5,1") == ("sram_scale", [0.5, 1])
        assert parse_axis("mode=fast,slow,") == ("mode", ["fast", "slow"])

    @pytest.mark.parametrize("text", ["num_hfu", "=1,2", "num_hfu="])
    def test_malformed_axis_is_refused(self, text):
        with pytest.raises(argparse.ArgumentTypeError, match="NAME=V1,V2"):
            parse_axis(text)


class TestSearchCommand:
    def test_reports_the_whole_grid_and_a_warm_rerun_renders_nothing(
        self, tmp_path, monkeypatch, capsys
    ):
        out = tmp_path / "search.json"
        argv = [
            "search",
            "--axis", "num_hfu=1,2",
            "--axis", "sram_scale=0.5,1.0",
            "--store", str(tmp_path / "store"),
            "--json", str(out),
        ]
        assert runner_main(argv) == 0
        cold = json.loads(out.read_text())
        assert cold["evaluations"] == cold["grid_size"] == 4
        assert cold["axes"] == {"num_hfu": [1, 2], "sram_scale": [0.5, 1.0]}
        assert [point["values"] for point in cold["points"]] == [
            {"num_hfu": hfu, "sram_scale": sram}
            for hfu in (1, 2)
            for sram in (0.5, 1.0)
        ]
        assert cold["frontier"]
        assert "from 4 evaluation(s) of a 4-point grid" in capsys.readouterr().out

        def no_render(self, spec):
            raise AssertionError(f"warm re-run rendered {spec.label}")

        monkeypatch.setattr(Session, "run_point", no_render)
        out.unlink()
        assert runner_main(argv) == 0
        assert json.loads(out.read_text()) == cold
