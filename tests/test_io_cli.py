"""Serialization round trips and command-line behavior."""

import csv
import tracemalloc

import numpy as np
import pytest

from blf.bench import GENERATORS, BenchmarkRecord, summarize
from blf.cli import main
from blf.io import (
    fmt,
    read_coeffs_csv,
    read_report,
    read_series_csv,
    read_spectrogram_csv,
    write_fit_csv,
    write_report,
    write_scree_csv,
    write_series_csv,
    write_spectrogram_csv,
    write_summary,
)
from blf.selection import SearchGrid, fit_blfdyn
from blf.simulate import gen_tvar2, gen_tvar6
from blf.spectrum import Spectrogram, default_freq_grid, tvar_spectrum


class TestSeriesCsv:
    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(40)
        x = rng.normal(size=200) * 10.0 ** rng.integers(-8, 8, size=200)
        path = tmp_path / "series.csv"
        write_series_csv(path, x)
        np.testing.assert_array_equal(read_series_csv(path), x)

    def test_headerless_input_accepted(self, tmp_path):
        path = tmp_path / "plain.csv"
        path.write_text("1.5\n-2.25\n3.0\n")
        np.testing.assert_array_equal(read_series_csv(path),
                                      [1.5, -2.25, 3.0])

    def test_malformed_row_is_diagnosed_with_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x\n1.0\noops\n")
        with pytest.raises(ValueError, match="row 3"):
            read_series_csv(path)

    def test_multicolumn_rejected(self, tmp_path):
        path = tmp_path / "wide.csv"
        path.write_text("1.0,2.0\n")
        with pytest.raises(ValueError, match="one column"):
            read_series_csv(path)


class TestSpectrogramCsv:
    def test_first_row_is_frequency_grid(self, tmp_path):
        rng = np.random.default_rng(41)
        freqs = default_freq_grid(0.05)
        spg = Spectrogram(np.arange(1, 5), freqs,
                          rng.uniform(0.5, 4.0, size=(4, len(freqs))))
        path = tmp_path / "spec.csv"
        write_spectrogram_csv(path, spg)
        with open(path, newline="") as fh:
            first = next(csv.reader(fh))
        np.testing.assert_array_equal([float(c) for c in first], freqs)

    def test_log_cells_roundtrip_bitwise(self, tmp_path):
        rng = np.random.default_rng(42)
        freqs = default_freq_grid(0.025)
        values = rng.uniform(1e-6, 1e6, size=(7, len(freqs)))
        spg = Spectrogram(np.arange(1, 8), freqs, values)
        path = tmp_path / "spec.csv"
        write_spectrogram_csv(path, spg)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        cells = np.array([[float(c) for c in row[1:]] for row in rows[1:]])
        np.testing.assert_array_equal(cells, np.log(values))
        back = read_spectrogram_csv(path)
        assert back.same_grid(spg)
        np.testing.assert_allclose(back.values, values, rtol=1e-15)

    def test_row_logs_write_the_bytes_of_a_whole_surface_log(self, tmp_path):
        """The log is taken one row at a time; a T=1025 file has the bytes
        of the file written from the log of the whole surface at once."""
        rng = np.random.default_rng(44)
        freqs = default_freq_grid()
        values = rng.uniform(1e-6, 1e6, size=(1025, len(freqs)))
        values[3, 7] = np.inf  # an exact unit root's cell
        spg = Spectrogram(np.arange(1, 1026), freqs, values)
        write_spectrogram_csv(tmp_path / "rows.csv", spg)
        write_spectrogram_csv(tmp_path / "whole.csv",
                              Spectrogram(spg.times, freqs, np.log(values)),
                              log_cells=False)
        assert (tmp_path / "rows.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()

    def test_writer_memory_does_not_grow_with_the_surface(self, tmp_path):
        """At T=16384 the traced peak of writing the log cells stays below
        1 MiB beyond the input.  Eleven frequencies keep the traced write
        short; the whole-surface log alone took 1.4 MiB of them (13.5 MiB
        at 101 frequencies)."""
        T, freqs = 16384, default_freq_grid(0.05)
        spg = Spectrogram(np.arange(1, T + 1), freqs,
                          np.random.default_rng(45).uniform(0.5, 2.0, size=(T, len(freqs))))
        tracemalloc.start()
        try:
            write_spectrogram_csv(tmp_path / "spec.csv", spg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_linear_cells_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(43)
        freqs = default_freq_grid(0.1)
        spg = Spectrogram(np.array([-4, 0, 1024]), freqs,
                          rng.uniform(0, 2, size=(3, len(freqs))))
        path = tmp_path / "sd.csv"
        write_spectrogram_csv(path, spg, log_cells=False)
        back = read_spectrogram_csv(path, log_cells=False)
        assert back.same_grid(spg) and back.times.dtype.kind == "i"
        np.testing.assert_array_equal(back.values, spg.values)


class TestCsvValidation:
    @pytest.mark.parametrize("reader, text, match", [
        (read_spectrogram_csv, "", "no numeric data"),
        (read_spectrogram_csv, "0,0.25,0.5\n", "no numeric data"),
        (read_spectrogram_csv, "0,0.25,0.5\n1,0.1,0.2,0.3\n2,0.1,0.2\n",
         "row 3: expected 4 columns, got 3"),
        (read_spectrogram_csv, "0,0.25,0.5\n1,0.1,oops,0.3\n", "row 2: .*'oops'"),
        (read_spectrogram_csv, "0,0.25,x\n1,0.1,0.2,0.3\n", "row 1: .*'x'"),
        (read_spectrogram_csv, "0,nan,0.5\n1,0.1,0.2,0.3\n",
         "row 1: frequency grid must be finite, got nan at index 1"),
        (read_spectrogram_csv, "0,0.5\n1,1,2\nnan,1,2\n",
         "row 3: time must be an integer, got 'nan'"),
        (read_spectrogram_csv, "0,0.5\n\ninf,1,2\n",
         "row 3: time must be an integer, got 'inf'"),
        (read_spectrogram_csv, "0,0.5\n2.7,1,2\n",
         "row 2: time must be an integer, got '2.7'"),
        (read_spectrogram_csv, "0,0.5\n1e19,1,2\n",
         "row 2: time must be an integer, got '1e19'"),
        (read_coeffs_csv, "", "no numeric data"),
        (read_coeffs_csv, "t,a1,a2\n", "no numeric data"),
        (read_coeffs_csv, "t,a1,a2\n1,0.5,0.1\n\n3,0.5\n",
         "row 4: expected 3 columns, got 2"),
        (read_coeffs_csv, "t,a1\n1,0.5,0.1\n", "row 2: expected 2 columns, got 3"),
        (read_coeffs_csv, "t,a1,a2\n1,0.5,oops\n", "row 2: .*'oops'"),
        (read_series_csv, "x\n", "no numeric data"),
        (read_series_csv, "x\n1.0\n2.0\nnan\n", "row 4: non-finite value 'nan'"),
    ])
    def test_bad_rows_are_named(self, tmp_path, reader, text, match):
        """Every reader names the file and the 1-based row of a ragged or
        non-numeric row, and refuses a file without data rows; the series
        reader also names a non-finite cell, and the spectrogram reader a
        header that is not a frequency grid and a time cell that is not an
        integer within int64."""
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=match) as err:
            reader(path)
        assert str(err.value).startswith(f"{path}: ")


@pytest.fixture(scope="module")
def report():
    rng = np.random.default_rng(44)
    x = rng.normal(size=300)
    x[1:] += 0.8 * x[:-1]
    grid = SearchGrid(gammas=(0.95, 1.0), deltas=(0.95, 1.0), p_max=3)
    return fit_blfdyn(x, grid=grid)


class TestFitAndReportFiles:

    def test_fit_csv_roundtrip_bit_exact(self, tmp_path, report):
        write_fit_csv(tmp_path / "c.csv", tmp_path / "v.csv", report.fit)
        coeffs = read_coeffs_csv(tmp_path / "c.csv")
        np.testing.assert_array_equal(coeffs, report.fit.coeffs)

    def test_report_roundtrip(self, tmp_path, report):
        write_report(tmp_path / "r.txt", report, tau=0.5)
        back = read_report(tmp_path / "r.txt")
        assert back["method"] == "blfdyn"
        assert back["chosen_order"] == report.chosen_order
        assert back["saturated"] == report.saturated
        assert back["tau"] == 0.5
        assert back["p_max"] == 3
        np.testing.assert_array_equal(back["scree"], report.scree)
        np.testing.assert_array_equal(
            back["gammas"], [d.gamma for d in report.per_stage_discounts])

    def test_summary_bytes(self, tmp_path):
        """One block per method, in name order: a method whose replicates
        all failed has empty mean_ase and sd_ase values and no orders, and
        the text returned is the text written."""
        records = [BenchmarkRecord(0, 5, "blfdyn", 2, 0.25),
                   BenchmarkRecord(1, 6, "blfdyn", 3, 0.5),
                   BenchmarkRecord(0, 5, "blffix", None, None, error="boom")]
        text = write_summary(tmp_path / "summary.txt", summarize(records))
        assert (tmp_path / "summary.txt").read_bytes() == text.encode() == (
            b"method: blfdyn\n  n_ok: 2\n  n_failed: 0\n  mean_ase: 0.375\n"
            b"  sd_ase: 0.17677669529663689\n  orders: 2:1,3:1\n"
            b"method: blffix\n  n_ok: 0\n  n_failed: 1\n  mean_ase: \n"
            b"  sd_ase: \n  orders: \n")

    def test_scree_csv_shape(self, tmp_path, report):
        write_scree_csv(tmp_path / "s.csv", report)
        with open(tmp_path / "s.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["m", "loglik", "pct_change"]
        assert len(rows) == 1 + 3
        assert rows[1][2] == ""
        assert rows[2][2] != ""


class TestCli:
    def test_simulate_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "tvar2", "--T", "128", "--seed", "1",
                     "--out-dir", str(a)]) == 0
        assert main(["simulate", "tvar2", "--T", "128", "--seed", "1",
                     "--out-dir", str(b)]) == 0
        for name in ("series.csv", "truth.csv", "truth_spectrogram.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_simulate_piecewise_truth_boundary(self, tmp_path):
        out = tmp_path / "pw"
        assert main(["simulate", "piecewise", "--T", "1024", "--seed", "2",
                     "--out-dir", str(out)]) == 0
        with open(out / "truth.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        # header + rows t=1..1024; coefficient change between rows 512 and 513
        assert float(rows[512][1]) == 0.9
        assert float(rows[513][1]) == 1.69

    def test_simulate_tvar6_angle_endpoints(self, tmp_path):
        out = tmp_path / "t6"
        assert main(["simulate", "tvar6", "--T", "512", "--seed", "3",
                     "--out-dir", str(out)]) == 0
        proc = gen_tvar6(512, seed=3)
        with open(out / "truth.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        np.testing.assert_array_equal(
            [float(c) for c in rows[1][1:7]], proc.true_coeffs[0])
        for row_idx, t in ((1, 1), (512, 512)):
            coeffs = np.array([float(c) for c in rows[row_idx][1:7]])
            poly = np.concatenate([[1.0], -coeffs])
            roots = np.roots(poly[::-1])
            angles = np.sort(np.abs(np.angle(roots[roots.imag > 0])) / (2 * np.pi))
            drift = (0.1 / 511) * t
            np.testing.assert_allclose(
                angles, np.sort([0.05 + drift, 0.25, 0.45 - drift]), atol=1e-10)

    def test_fit_blfdyn_on_simulated_tvar2(self, tmp_path):
        sim = tmp_path / "sim"
        fit = tmp_path / "fit"
        assert main(["simulate", "tvar2", "--T", "1024", "--seed", "4",
                     "--out-dir", str(sim)]) == 0
        assert main(["fit", str(sim / "series.csv"), "--method", "blfdyn",
                     "--out-dir", str(fit)]) == 0
        report = read_report(fit / "report.txt")
        assert report["chosen_order"] == 2
        spg = read_spectrogram_csv(fit / "spectrogram.csv")
        np.testing.assert_array_equal(spg.freqs, default_freq_grid())
        assert len(spg.times) == 1024

    def test_fit_fixed_static_on_white_noise(self, tmp_path):
        rng = np.random.default_rng(45)
        src = tmp_path / "wn.csv"
        write_series_csv(src, rng.normal(size=500))
        out = tmp_path / "out"
        assert main(["fit", str(src), "--method", "fixed", "--gamma", "1",
                     "--delta", "1", "--order", "1",
                     "--out-dir", str(out)]) == 0
        coeffs = read_coeffs_csv(out / "coefficients.csv")
        assert np.all(np.abs(coeffs) < 0.1)
        # --gamma and --delta default to 1 with --method fixed
        unset = tmp_path / "unset"
        assert main(["fit", str(src), "--method", "fixed", "--order", "1",
                     "--out-dir", str(unset)]) == 0
        assert (unset / "coefficients.csv").read_bytes() == \
            (out / "coefficients.csv").read_bytes()

    def test_fit_posterior_surfaces_written(self, tmp_path):
        rng = np.random.default_rng(46)
        src = tmp_path / "s.csv"
        write_series_csv(src, rng.normal(size=200))
        out = tmp_path / "out"
        assert main(["fit", str(src), "--method", "fixed", "--gamma", "0.95",
                     "--delta", "0.95", "--order", "1", "--draws", "64",
                     "--seed", "5", "--out-dir", str(out)]) == 0
        mean = read_spectrogram_csv(out / "posterior_mean.csv")
        sd = read_spectrogram_csv(out / "posterior_sd.csv", log_cells=False)
        assert mean.values.shape == sd.values.shape == (200, 101)
        assert np.all(sd.values >= 0)

    def test_fit_rejects_short_series(self, tmp_path):
        src = tmp_path / "tiny.csv"
        write_series_csv(src, np.arange(5.0))
        assert main(["fit", str(src), "--out-dir", str(tmp_path)]) == 1

    def test_fit_accepts_p_max_one_below_length(self, tmp_path):
        """The searches' length rule is p_max < T, so T = p_max + 1 fits."""
        src = tmp_path / "short.csv"
        write_series_csv(src, np.random.default_rng(49).normal(size=5))
        out = tmp_path / "out"
        assert main(["fit", str(src), "--p-max", "4", "--grid-min", "0.9",
                     "--grid-step", "0.05", "--out-dir", str(out)]) == 0
        assert read_coeffs_csv(out / "coefficients.csv").shape[0] == 5

    def test_fit_fixed_short_series_ignores_p_max(self, tmp_path):
        """The p_max length guard applies to the searches only."""
        src = tmp_path / "short.csv"
        write_series_csv(src, np.random.default_rng(48).normal(size=12))
        out = tmp_path / "out"
        assert main(["fit", str(src), "--method", "fixed", "--order", "2",
                     "--out-dir", str(out)]) == 0
        assert read_coeffs_csv(out / "coefficients.csv").shape == (12, 2)

    def test_fixed_requires_order(self, tmp_path):
        src = tmp_path / "s.csv"
        write_series_csv(src, np.random.default_rng(0).normal(size=100))
        assert main(["fit", str(src), "--method", "fixed",
                     "--out-dir", str(tmp_path)]) == 1

    def test_benchmark_outputs_and_determinism(self, tmp_path):
        args = ["benchmark", "tvar2", "--n", "2", "--T", "256",
                "--methods", "blfdyn", "--p-max", "4",
                "--grid-min", "0.94", "--grid-step", "0.03", "--seed", "9"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out-dir", str(a)]) == 0
        assert main(args + ["--out-dir", str(b)]) == 0
        assert (a / "replicates.csv").read_bytes() == (b / "replicates.csv").read_bytes()
        with open(a / "replicates.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["replicate", "seed", "method", "chosen_order",
                           "ase", "status"]
        assert len(rows) == 3
        assert rows[1][1] == "9" and rows[2][1] == "10"  # seed + replicate
        assert all(r[5] == "ok" for r in rows[1:])
        summary = (a / "summary.txt").read_text()
        assert "mean_ase" in summary

    def test_benchmark_worker_pool_matches_serial(self, tmp_path):
        args = ["benchmark", "tvar2", "--n", "2", "--T", "200",
                "--methods", "blfdyn", "--p-max", "3",
                "--grid-min", "0.96", "--grid-step", "0.04", "--seed", "1"]
        serial, pooled = tmp_path / "serial", tmp_path / "pooled"
        assert main(args + ["--out-dir", str(serial)]) == 0
        assert main(args + ["--workers", "2", "--out-dir", str(pooled)]) == 0
        assert (serial / "replicates.csv").read_bytes() == \
               (pooled / "replicates.csv").read_bytes()

    def test_benchmark_prior_flags_need_kappa0(self, tmp_path, capsys):
        """Prior flags without --prior-kappa0 are named in an error instead of
        being silently dropped; with it they reach every replicate's fit."""
        args = ["benchmark", "tvar2", "--n", "1", "--T", "200",
                "--methods", "blfdyn", "--p-max", "3",
                "--grid-min", "0.96", "--grid-step", "0.04"]
        assert main(args + ["--prior-c0", "50", "--prior-v0", "2",
                            "--out-dir", str(tmp_path / "bad")]) == 1
        err = capsys.readouterr().err
        assert "--prior-c0, --prior-v0 set without --prior-kappa0" in err
        assert not (tmp_path / "bad").exists()
        for c0 in ("1", "50"):
            assert main(args + ["--prior-kappa0", "1", "--prior-c0", c0,
                                "--out-dir", str(tmp_path / c0)]) == 0
        assert (tmp_path / "1" / "replicates.csv").read_bytes() != \
               (tmp_path / "50" / "replicates.csv").read_bytes()

    @pytest.mark.parametrize("args, expected", [
        ([], SearchGrid().gammas),
        (["--grid-max", "0.95", "--grid-step", "0.04"], (0.8, 0.84, 0.88, 0.92)),
        (["--grid-step", "0.03"], (0.8, 0.83, 0.86, 0.89, 0.92, 0.95, 0.98)),
    ])
    def test_fit_grid_stays_within_max(self, tmp_path, monkeypatch, args, expected):
        """The searched grid runs from --grid-min in --grid-step steps and
        never past --grid-max; the default flags give the library default."""
        grids = []

        def spy(x, grid, **kwargs):
            grids.append(grid)
            return fit_blfdyn(x, grid=grid, **kwargs)

        monkeypatch.setattr("blf.cli.fit_blfdyn", spy)
        src = tmp_path / "s.csv"
        write_series_csv(src, np.random.default_rng(52).normal(size=40))
        out = tmp_path / "out"
        assert main(["fit", str(src), "--p-max", "2", "--out-dir", str(out)] + args) == 0
        assert grids[0].gammas == grids[0].deltas == expected
        report = read_report(out / "report.txt")
        assert set(report["gammas"]) | set(report["deltas"]) <= set(expected)

    def test_benchmark_rejects_workers_below_one(self, tmp_path, capsys):
        for workers in ("0", "-3"):
            out = tmp_path / workers
            assert main(["benchmark", "tvar2", "--n", "1", "--T", "64", "--workers",
                         workers, "--out-dir", str(out)]) == 1
            assert f"error: workers must be >= 1, got {workers}" in capsys.readouterr().err
            assert not out.exists()

    def test_benchmark_rejects_repeated_method(self, tmp_path, capsys):
        """A method listed twice would fit each replicate twice and count it
        twice in the summary; it is named and refused before any output."""
        out = tmp_path / "out"
        assert main(["benchmark", "tvar2", "--n", "1", "--T", "16", "--p-max", "2",
                     "--methods", "blfdyn,blfdyn", "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err.startswith(
            "error: method 'blfdyn' is listed more than once")
        assert not out.exists()

    def test_fit_rejects_bad_freq_step(self, tmp_path, capsys):
        src = tmp_path / "s.csv"
        write_series_csv(src, np.random.default_rng(49).normal(size=100))
        out = tmp_path / "out"
        for step in ("0", "0.3"):
            assert main(["fit", str(src), "--method", "fixed", "--order", "1",
                         "--freq-step", step, "--out-dir", str(out)]) == 1
            assert "frequency step" in capsys.readouterr().err
            assert not out.exists()

    def test_fit_rejects_bad_seed_before_fitting(self, tmp_path, capsys):
        src = tmp_path / "s.csv"
        write_series_csv(src, np.random.default_rng(53).normal(size=60))
        out = tmp_path / "out"
        assert main(["fit", str(src), "--method", "fixed", "--order", "1",
                     "--seed", "-1", "--draws", "4", "--out-dir", str(out)]) == 1
        assert "error: --seed -1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        ["simulate", "tvar2", "--T", "64"],
        ["benchmark", "tvar2", "--n", "2", "--T", "64", "--methods", "blfdyn",
         "--p-max", "2", "--grid-min", "0.9", "--grid-step", "0.1"],
    ])
    def test_simulate_and_benchmark_reject_bad_seed(self, tmp_path, capsys, command):
        """A negative seed is named as the flag, before anything is written."""
        out = tmp_path / "out"
        assert main(command + ["--seed", "-1", "--out-dir", str(out)]) == 1
        assert "error: --seed -1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        ["fit", "s.csv", "--grid-step", "1e-15"],
        ["simulate", "tvar2", "--T", "64", "--freq-step", "1e-15"],
    ])
    def test_impossible_array_exits_with_a_diagnostic(self, tmp_path, capsys,
                                                      command):
        """A step that asks for an array of petabytes ends in numpy's
        MemoryError at once; it is printed as an error, not a traceback,
        before anything is written."""
        write_series_csv(tmp_path / "s.csv", np.random.default_rng(54).normal(size=60))
        out = tmp_path / "out"
        command = [str(tmp_path / c) if c == "s.csv" else c for c in command]
        assert main(command + ["--out-dir", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: Unable to allocate")
        assert not out.exists()

    def test_simulate_rejects_bad_freq_step(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["simulate", "tvar2", "--T", "64", "--freq-step", "0.3",
                     "--out-dir", str(out)]) == 1
        assert "frequency step" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("process", sorted(GENERATORS))
    def test_every_registered_process_runs(self, tmp_path, process):
        """``blf simulate`` and ``blf benchmark`` serve every process of the
        one registry."""
        sim = tmp_path / "sim"
        assert main(["simulate", process, "--T", "128", "--seed", "1",
                     "--out-dir", str(sim)]) == 0
        np.testing.assert_array_equal(read_series_csv(sim / "series.csv"),
                                      GENERATORS[process](128, seed=1).x)
        bench = tmp_path / "bench"
        assert main(["benchmark", process, "--n", "1", "--T", "128",
                     "--methods", "blffix", "--p-max", "3", "--grid-min", "0.96",
                     "--grid-step", "0.04", "--out-dir", str(bench)]) == 0
        with open(bench / "replicates.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 2 and rows[1][5] == "ok"

    @pytest.mark.parametrize("flag, value, message", [
        ("--n", "0", "need n >= 1"), ("--methods", ",", "need n >= 1"),
        ("--tau", "nan", "tau must be finite"),
        ("--grid-step", "inf", "grid bounds must satisfy"),
    ], ids=["--n-0", "--methods-,", "--tau-nan", "--grid-step-inf"])
    def test_benchmark_rejects_empty_or_futile_runs(self, tmp_path, capsys,
                                                     flag, value, message):
        out = tmp_path / "out"
        assert main(["benchmark", "tvar2", "--T", "64", flag, value,
                     "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not out.exists()

    def test_simulate_tvvar(self, tmp_path):
        out = tmp_path / "tvv"
        assert main(["simulate", "tvvar", "--T", "64", "--seed", "6",
                     "--out-dir", str(out)]) == 0
        x = read_series_csv(out / "series.csv")
        assert len(x) == 64

    def test_simulate_tvvar_rejects_empty(self, tmp_path, capsys):
        assert main(["simulate", "tvvar", "--T", "0", "--out-dir", str(tmp_path)]) == 1
        assert "error: T must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("tau", ["nan", "-1"])
    def test_fit_rejects_tau_that_cannot_fire(self, tmp_path, capsys, tau):
        """Every method rejects tau, even ``fixed``, which never applies the
        order rule, and before the input (absent here) is read."""
        out = tmp_path / "out"
        for method in ("blfdyn", "blffix", "fixed"):
            assert main(["fit", str(tmp_path / "absent.csv"), "--method", method,
                         "--order", "1", "--tau", tau, "--out-dir", str(out)]) == 1
            assert "error: tau must be finite and > 0" in capsys.readouterr().err
            assert not out.exists()

    def test_fit_rejects_order_with_a_search(self, tmp_path, capsys):
        """A search picks its own order and discounts, so --order, --gamma
        and --delta are refused, not ignored, before the input (absent here)
        is read."""
        out = tmp_path / "out"
        for method in ("blfdyn", "blffix"):
            for flag, val in (("--order", "3"), ("--gamma", "0.5"), ("--delta", "0.5")):
                assert main(["fit", str(tmp_path / "absent.csv"), "--method", method,
                             flag, val, "--out-dir", str(out)]) == 1
                assert f"error: {flag} applies only to --method fixed" in \
                    capsys.readouterr().err
                assert not out.exists()

    @pytest.mark.parametrize("draws", ["-3", "1"])
    def test_fit_rejects_bad_draws_before_fitting(self, tmp_path, capsys, draws):
        src = tmp_path / "s.csv"
        write_series_csv(src, np.random.default_rng(51).normal(size=60))
        out = tmp_path / "out"
        assert main(["fit", str(src), "--method", "fixed", "--order", "1",
                     "--draws", draws, "--out-dir", str(out)]) == 1
        assert "error: --draws must be 0 or >= 2" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_input_exits_nonzero(self, tmp_path):
        assert main(["fit", str(tmp_path / "absent.csv"),
                     "--out-dir", str(tmp_path)]) == 1

    def test_version(self, capsys):
        assert main(["version"]) == 0
        assert capsys.readouterr().out.strip()


class TestFullPrecisionFormat:
    def test_fmt_roundtrips_float64(self):
        rng = np.random.default_rng(47)
        vals = np.concatenate([
            rng.normal(size=500) * 10.0 ** rng.integers(-300, 300, size=500),
            [0.0, 1.0, np.pi, 2.0 / 3.0],
        ])
        for v in vals:
            assert float(fmt(v)) == v
