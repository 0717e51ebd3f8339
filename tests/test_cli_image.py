"""Tests for the CLI and image utilities."""

import numpy as np
import pytest

from repro.cli import main
from repro.tracing.image import (
    mse,
    psnr,
    read_pnm,
    to_uint8,
    tonemap,
    write_pgm,
    write_ppm,
)


class TestImageUtils:
    def test_tonemap_range(self):
        img = np.array([[[0.0, 1.0, 100.0]]])
        out = tonemap(img)
        assert out.min() >= 0.0 and out.max() <= 1.0
        assert out[0, 0, 2] > out[0, 0, 1] > out[0, 0, 0]

    def test_tonemap_black(self):
        assert np.all(tonemap(np.zeros((2, 2, 3))) == 0.0)

    def test_tonemap_exposure(self):
        img = np.full((1, 1, 3), 0.5)
        assert tonemap(img, exposure=4.0).mean() > tonemap(img).mean()

    def test_tonemap_gamma_validated(self):
        with pytest.raises(ValueError):
            tonemap(np.zeros((1, 1, 3)), gamma=0)

    def test_to_uint8_rounding(self):
        assert to_uint8(np.array([0.0, 1.0, 0.5])).tolist() == [0, 255, 128]

    def test_ppm_roundtrip(self, tmp_path):
        img = np.random.default_rng(0).uniform(0, 1, (4, 6, 3))
        path = tmp_path / "x.ppm"
        write_ppm(path, img)
        back = read_pnm(path)
        assert back.shape == (4, 6, 3)
        assert np.abs(back - img).max() < 1 / 255 + 1e-9

    def test_pgm_roundtrip(self, tmp_path):
        img = np.random.default_rng(1).uniform(0, 1, (5, 3))
        path = tmp_path / "x.pgm"
        write_pgm(path, img)
        back = read_pnm(path)
        assert back.shape == (5, 3)

    def test_write_shape_validation(self, tmp_path):
        with pytest.raises(ValueError):
            write_ppm(tmp_path / "x.ppm", np.zeros((2, 2)))
        with pytest.raises(ValueError):
            write_pgm(tmp_path / "x.pgm", np.zeros((2, 2, 3)))

    def test_mse_psnr(self):
        a = np.zeros((2, 2))
        b = np.full((2, 2), 0.1)
        assert mse(a, a) == 0.0
        assert psnr(a, a) == float("inf")
        assert mse(a, b) == pytest.approx(0.01)
        assert psnr(a, b) == pytest.approx(20.0)

    def test_mse_shape_mismatch(self):
        with pytest.raises(ValueError):
            mse(np.zeros((2, 2)), np.zeros((3, 3)))


class TestCLI:
    def test_scenes_lists_table2(self, capsys):
        assert main(["scenes"]) == 0
        out = capsys.readouterr().out
        assert "BUNNY" in out and "ROBOT" in out
        assert "WKND" not in out

    def test_scenes_all(self, capsys):
        main(["scenes", "--all"])
        assert "WKND" in capsys.readouterr().out

    def test_figure_unknown(self, capsys):
        assert main(["figure", "nope"]) == 2
        assert "unknown figure" in capsys.readouterr().err

    def test_figure_table1(self, capsys):
        assert main(["figure", "table1", "--fast"]) == 0
        assert "l1_latency" in capsys.readouterr().out

    def test_render_writes_image(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "1.0")
        # Render the smallest extra scene at the default setup but write
        # into tmp_path; use WKND to keep this test quick.
        out = tmp_path / "wknd.ppm"
        monkeypatch.setattr(
            "repro.cli.default_setup",
            lambda fast=False: __import__(
                "repro.gpusim.config", fromlist=["default_setup"]
            ).default_setup(fast=True),
        )
        assert main(["render", "WKND", "--policy", "baseline", "-o", str(out)]) == 0
        assert out.exists()
        img = read_pnm(out)
        assert img.ndim == 3

    def test_render_takes_every_policy(self, tmp_path, capsys, monkeypatch):
        """`render --policy` offers every render policy, sorted included;
        `--record-trace` still refuses sorted with exit 2."""
        monkeypatch.setattr(
            "repro.cli.default_setup",
            lambda fast=False: __import__(
                "repro.gpusim.config", fromlist=["default_setup"]
            ).default_setup(fast=True),
        )
        out = tmp_path / "bunny_sorted.ppm"
        assert main(["render", "BUNNY", "--policy", "sorted", "-o", str(out)]) == 0
        assert capsys.readouterr().out.startswith("sorted: ")
        assert read_pnm(out).ndim == 3
        trace = tmp_path / "bunny_sorted.memtrace"
        assert main(["render", "BUNNY", "--policy", "sorted",
                     "--record-trace", str(trace), "-o", str(out)]) == 2
        assert "not 'sorted'" in capsys.readouterr().err
        assert not trace.exists()

    def test_compare_runs(self, capsys, monkeypatch):
        monkeypatch.setattr(
            "repro.cli.default_setup",
            lambda fast=False: __import__(
                "repro.gpusim.config", fromlist=["default_setup"]
            ).default_setup(fast=True),
        )
        assert main(["compare", "WKND"]) == 0
        out = capsys.readouterr().out
        assert "baseline" in out and "vtq" in out


class TestCLIExportSweep:
    def test_export_csv(self, tmp_path):
        out = tmp_path / "t1.csv"
        assert main(["export", "table1", str(out), "--fast"]) == 0
        assert "l1_latency" in out.read_text()

    def test_export_json(self, tmp_path):
        import json

        out = tmp_path / "t1.json"
        assert main(["export", "table1", str(out), "--fast"]) == 0
        data = json.loads(out.read_text())
        assert any(row[0] == "num_sms" for row in data["rows"])

    def test_export_unknown_figure(self, tmp_path, capsys):
        assert main(["export", "nope", str(tmp_path / "x.csv")]) == 2

    def test_sweep_vtq(self, capsys):
        assert main(
            ["sweep", "vtq", "repack_threshold", "8,22", "--scene", "WKND",
             "--fast"]
        ) == 0
        out = capsys.readouterr().out
        assert "repack_threshold" in out and "speedup" in out

    def test_sweep_unknown_param(self, capsys):
        assert main(
            ["sweep", "vtq", "bogus_param", "1", "--scene", "WKND", "--fast"]
        ) == 2
        assert "no field" in capsys.readouterr().err

    def test_sweep_boolean_values(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        assert main(
            ["sweep", "vtq", "repack_enabled", "False,True", "--scene",
             "BUNNY", "--fast"]
        ) == 0
        rows = [line.split("|")[0].strip()
                for line in capsys.readouterr().out.splitlines()]
        assert rows.count("False") == 1 and rows.count("True") == 1

    def test_sweep_bad_value_exits_2_with_a_message(self, capsys):
        assert main(
            ["sweep", "gpu", "dram_latency", "300,x", "--fast"]
        ) == 2
        assert "dram_latency value: 'x'" in capsys.readouterr().err

    def test_sweep_and_pareto_accept_splat_scenes(
        self, tmp_path, capsys, monkeypatch
    ):
        from repro.cli import build_parser

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        assert main(
            ["sweep", "vtq", "repack_threshold", "8,22", "--scene", "GSPL1",
             "--fast"]
        ) == 0
        assert "VTQ sweep on GSPL1" in capsys.readouterr().out
        assert build_parser().parse_args(["pareto", "GSPL1"]).scene == "GSPL1"


class TestCLIJobsAndTrace:
    def test_jobs_arg_rejects_negatives(self, capsys):
        with pytest.raises(SystemExit):
            main(["figure", "fig1", "--fast", "--jobs", "-1"])
        assert "--jobs must be >= 0" in capsys.readouterr().err

    def test_jobs_arg_rejects_garbage(self, capsys):
        with pytest.raises(SystemExit):
            main(["figure", "fig1", "--fast", "--jobs", "lots"])
        assert "--jobs must be an integer" in capsys.readouterr().err

    def test_serve_queue_max_below_one_is_a_usage_error(self, capsys):
        from repro.cli import build_parser

        with pytest.raises(SystemExit) as exc_info:
            build_parser().parse_args(["serve", "--queue-max", "0"])
        assert exc_info.value.code == 2
        assert "--queue-max must be >= 1, got 0" in capsys.readouterr().err

    def test_serve_tenant_max_below_zero_is_a_usage_error(self, capsys):
        from repro.cli import build_parser

        with pytest.raises(SystemExit) as exc_info:
            build_parser().parse_args(["serve", "--tenant-max", "-1"])
        assert exc_info.value.code == 2
        assert ("--tenant-max must be >= 0 (0 = unlimited), got -1"
                in capsys.readouterr().err)

    def test_figure_jobs_zero_serial(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.setenv("REPRO_SCENES", "BUNNY")
        assert main(["figure", "fig1", "--fast", "--jobs", "0"]) == 0
        assert "BUNNY" in capsys.readouterr().out

    def test_figure_trace_out_writes_chrome_trace(
        self, tmp_path, capsys, monkeypatch
    ):
        import json

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.setenv("REPRO_SCENES", "BUNNY")
        trace = tmp_path / "trace.json"
        assert main(
            ["figure", "fig10", "--fast", "--jobs", "0",
             "--trace-out", str(trace)]
        ) == 0
        assert f"wrote {trace}" in capsys.readouterr().out
        doc = json.loads(trace.read_text())
        events = doc["traceEvents"]
        assert events
        assert all(e["ph"] in ("X", "i") for e in events)
        assert any(e["ph"] == "X" for e in events)
        assert all(
            e["cat"] == "mode_switch" for e in events if e["ph"] == "i"
        )

    def test_trace_out_without_simulator_cases(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        trace = tmp_path / "never.json"
        assert main(
            ["figure", "table1", "--fast", "--trace-out", str(trace)]
        ) == 0
        assert "nothing to trace" in capsys.readouterr().err
        assert not trace.exists()
