"""Command-line tests, all in-process through main(argv)."""

import math
import re
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest

from dmig import (
    Dataset, SampleColumn, gaussian_truth, read_report, read_series, write_dataset,
    write_series, write_truth,
)
from dmig import cli
from dmig.cli import main
from dmig.synthetic import FAMILIES

from conftest import tie_noise
from test_golden import GOLDEN
from test_plotting import report


def ideal_binary(tmp_path, name="d.csv", permuted=False):
    rng = np.random.default_rng(21)
    a1 = rng.integers(0, 2, 600).astype(float)
    a2 = rng.integers(0, 2, 600).astype(float)
    cols = [a1, a2]
    if permuted:
        cols = [rng.standard_normal(600), a1]
    ds = Dataset(
        latents=np.column_stack(cols),
        attributes=(
            SampleColumn(a1, kind="discrete"),
            SampleColumn(a2, kind="discrete"),
        ),
    )
    p = tmp_path / name
    write_dataset(ds, p)
    return p


class TestEval:
    def test_ideal_dataset_prints_unit_metrics(self, tmp_path, capsys):
        p = ideal_binary(tmp_path)
        assert main(["eval", str(p)]) == 0
        out = capsys.readouterr().out
        assert "1.0000" in out
        assert (tmp_path / "d.report").exists()

    def test_permuted_latents_reported_not_fatal(self, tmp_path, capsys):
        p = ideal_binary(tmp_path, permuted=True)
        assert main(["eval", str(p)]) == 0
        assert "regularization_failure" in capsys.readouterr().out

    def test_missing_file_is_operational_error(self, tmp_path, capsys):
        assert main(["eval", str(tmp_path / "nope.csv")]) == 2
        assert capsys.readouterr().err != ""

    def test_sentinel_dmig_printed_and_skipped_in_plot(self, tmp_path, capsys):
        # a1 is a function of a2, so H(a1 | a2) = 0 and DMIG(a1) is the
        # signed-infinity sentinel; a2's DMIG stays finite.
        a2 = np.random.default_rng(23).integers(0, 4, 600).astype(float)
        a1 = np.floor(a2 / 2)
        ds = Dataset(
            latents=np.column_stack([a1, a2]),
            attributes=(SampleColumn(a1, kind="discrete"), SampleColumn(a2, kind="discrete")),
        )
        p = tmp_path / "det.csv"
        write_dataset(ds, p)
        series = tmp_path / "det.series"
        assert main(["eval", str(p), str(p), "--out", str(series)]) == 0
        rows = [l for l in capsys.readouterr().out.splitlines() if l.startswith("a1 ")]
        assert len(rows) == 2
        assert all(re.fullmatch(r"[+-]inf", row.split()[2]) for row in rows)
        svg = tmp_path / "det.svg"
        assert main(["plot", str(series), "--x", "mig", "--y", "dmig", "--out", str(svg)]) == 0
        assert "<!-- skipped 2 non-finite points -->" in svg.read_text()

    def test_multiple_datasets_make_a_series(self, tmp_path):
        p1 = ideal_binary(tmp_path, "e0.csv")
        p2 = ideal_binary(tmp_path, "e1.csv")
        out = tmp_path / "run.series"
        assert main(["eval", str(p1), str(p2), "--out", str(out)]) == 0
        text = out.read_text()
        assert "#kind series" in text and "epoch 0" in text and "epoch 1" in text

    @pytest.mark.parametrize("scale", [1e160, 1e300])
    def test_continuous_attribute_whose_spread_overflows(self, tmp_path, scale):
        # np.std of a1 * scale overflows float64; the tie-breaking jitter
        # still has a finite scale, and no RuntimeWarning escapes. The
        # class-wise and KSG estimates count neighbours only, so a2's
        # record, whose denominator is H(a2 | a1), equals the one at scale 1.
        rng = np.random.default_rng(5)
        a1 = rng.standard_normal(500)
        a2 = rng.integers(0, 4, 500).astype(float)
        lat = np.column_stack([a1 + 0.1 * rng.standard_normal(500),
                               a2 + 0.3 * rng.standard_normal(500)])
        reports = []
        for s in (1.0, scale):
            ds = Dataset(latents=lat, attributes=(SampleColumn(a1 * s, kind="continuous"),
                                                  SampleColumn(a2, kind="discrete")))
            p = tmp_path / f"{s:g}.csv"
            write_dataset(ds, p)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert main(["eval", str(p)]) == 0
            reports.append(read_report(p.with_suffix(".report")))
        huge = reports[1].per_attribute
        assert all(math.isfinite(v) for a in huge for v in (a.mig, a.dmig, a.denominator))
        assert huge[1] == reports[0].per_attribute[1]

    def test_continuous_attribute_at_the_float64_maximum(self, tmp_path, capsys):
        # Adding the tie-breaking jitter to that value overflows float64.
        rng = np.random.default_rng(5)
        a1 = rng.standard_normal(200)
        a1[0] = np.finfo(np.float64).max
        a2 = rng.integers(0, 4, 200).astype(float)
        ds = Dataset(latents=np.column_stack([rng.standard_normal(200),
                                              a2 + 0.3 * rng.standard_normal(200)]),
                     attributes=(SampleColumn(a1, kind="continuous"),
                                 SampleColumn(a2, kind="discrete")))
        p = tmp_path / "max.csv"
        write_dataset(ds, p)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["eval", str(p)]) == 0
        assert capsys.readouterr().err == ""
        records = read_report(p.with_suffix(".report")).per_attribute
        assert all(math.isfinite(v) for a in records for v in (a.mig, a.dmig, a.denominator))

    def test_tied_latent_at_a_tiny_scale_keeps_its_mig(self, tmp_path):
        # A 4-level attribute whose latent is rounded to 0.1. np.std of that
        # latent underflows to 0 at these scales; with no jitter the ties
        # read MIG ~1.95 with dmig_above_one. One jitter stream moves this
        # tie-heavy MIG by about 0.01 (ROADMAP item 12), so each scale is
        # the mean over 20 seeds.
        rng = np.random.default_rng(0)
        a = rng.integers(0, 4, 2000).astype(float)
        tied = np.round(a + rng.standard_normal(2000), 1)
        noise = rng.standard_normal(2000)
        paths = []
        for s in (1.0, 1e-200, 2.0**-900):
            paths.append(str(tmp_path / f"{s:g}.csv"))
            write_dataset(Dataset(latents=np.column_stack([tied * s, noise]),
                                  attributes=(SampleColumn(a, kind="discrete"),)), paths[-1])
        out = tmp_path / "s.series"
        records = []
        for seed in range(20):
            with tie_noise(seed=seed):
                assert main(["eval", *paths, "--out", str(out)]) == 0
            records.append([r.per_attribute[0] for _, r in read_series(out)])
        assert not any(r.flags for epoch in records for r in epoch)
        unit, *tiny = np.mean([[r.mig for r in epoch] for epoch in records], axis=0)
        assert tiny == pytest.approx([unit, unit], abs=0.01)


class TestSynth:
    def test_gaussian_writes_dataset_and_truth(self, tmp_path):
        assert (
            main(
                [
                    "synth",
                    "--family",
                    "gaussian_pair",
                    "--n",
                    "200",
                    "--out-dir",
                    str(tmp_path),
                ]
            )
            == 0
        )
        assert (tmp_path / "gaussian_pair.csv").exists()
        truth = (tmp_path / "gaussian_pair.truth").read_text()
        assert "i_a1a2 0.51082562376599" in truth

    def test_invalid_rho_is_usage_error(self, tmp_path):
        args = ["synth", "--family", "gaussian_pair", "--rho", "1.0",
                "--out-dir", str(tmp_path)]
        assert main(args) == 2

    def test_bad_pmf_is_usage_error(self, tmp_path, capsys):
        args = ["synth", "--family", "discrete_joint", "--pmf", "0.5,x;0.5,0",
                "--out-dir", str(tmp_path)]
        assert main(args) == 2
        assert capsys.readouterr().err.startswith("error: bad --pmf value '0.5,x;0.5,0'")

    @pytest.mark.parametrize(
        "flags",
        [
            ["--family", "trajectory", "--noise-start", "0"],
            ["--family", "trajectory", "--epochs", "-1"],
            ["--family", "discrete_joint", "--pmf", "0.5,0.5;nan,0"],
        ],
    )
    def test_invalid_flag_value_is_usage_error(self, tmp_path, capsys, flags):
        # The flags are checked before --out-dir and its parents are made.
        out_dir = tmp_path / "new" / "sub"
        assert main(["synth", "--n", "50", "--out-dir", str(out_dir), *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "family, generator", [("gaussian_pair", "gen_gaussian_pair"),
                              ("trajectory", "gen_trajectory")]
    )
    def test_unallocatable_sample_count_is_usage_error(
        self, tmp_path, capsys, monkeypatch, family, generator
    ):
        # A huge --n fails in the generator's first allocation; stand in
        # for it rather than ask for the memory.
        def too_big(spec):
            raise MemoryError

        assert FAMILIES[family].__name__ == generator
        monkeypatch.setitem(FAMILIES, family, too_big)
        out_dir = tmp_path / "new"
        args = ["synth", "--family", family, "--n", "100000000000",
                "--out-dir", str(out_dir)]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --n 100000000000 samples") and err.count("\n") == 1
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            # numpy refuses the 72.8 TiB schedule at once, without allocating.
            (["--epochs", "10000000000000"],
             "--n 50 samples of 2 latent dims in each of 10000000000000 epochs do not fit"),
            (["--noise-start", "1e308", "--noise-end", "1e307"],
             "--noise-start 1e+308 overflows float64"),
        ],
        ids=["epochs", "noise"],
    )
    def test_unusable_trajectory_schedule_is_usage_error(self, tmp_path, capsys, flags, message):
        out_dir = tmp_path / "new"
        args = ["synth", "--family", "trajectory", "--n", "50", *flags, "--out-dir", str(out_dir)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(args) == 2
        assert caught == []
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1
        assert not out_dir.exists()

    def test_trajectory_writes_epoch_files(self, tmp_path):
        args = ["synth", "--family", "trajectory", "--n", "50", "--epochs", "4",
                "--out-dir", str(tmp_path)]
        assert main(args) == 0
        for t in range(4):
            assert (tmp_path / f"trajectory_epoch{t}.csv").exists()
        assert (tmp_path / "trajectory.truth").exists()


class TestOracle:
    def synth(self, tmp_path, family, n, extra=()):
        args = ["synth", "--family", family, "--n", str(n),
                "--out-dir", str(tmp_path), *extra]
        assert main(args) == 0
        return tmp_path / f"{family}.csv"

    def test_gaussian_estimates_match_truth(self, tmp_path, capsys):
        p = self.synth(tmp_path, "gaussian_pair", 8000)
        assert main(["oracle", str(p), "--tol", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_tiny_sample_fails_checks(self, tmp_path, capsys):
        p = self.synth(tmp_path, "gaussian_pair", 40, extra=["--seed", "3"])
        assert main(["oracle", str(p), "--tol", "0.001"]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_discrete_table_tight_tolerance(self, tmp_path, capsys):
        p = self.synth(tmp_path, "discrete_joint", 20000)
        assert main(["oracle", str(p), "--tol", "0.01"]) == 0
        out = capsys.readouterr().out
        assert "dmig_a1" in out and "FAIL" not in out

    @pytest.mark.parametrize("tol", ["nan", "-1"])
    def test_invalid_tolerance_is_usage_error(self, tmp_path, capsys, tol):
        p = self.synth(tmp_path, "gaussian_pair", 200)
        capsys.readouterr()
        assert main(["oracle", str(p), "--tol", tol]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_truth_for_other_attribute_count_is_operational_error(self, tmp_path, capsys):
        rng = np.random.default_rng(24)
        ds = Dataset(
            latents=rng.standard_normal((50, 1)),
            attributes=(SampleColumn(rng.standard_normal(50), kind="continuous"),),
        )
        p = tmp_path / "one.csv"
        write_dataset(ds, p)
        write_truth("gaussian_pair", gaussian_truth(0.8), tmp_path / "one.truth")
        assert main(["oracle", str(p)]) == 2
        assert "describes 2 attributes but" in capsys.readouterr().err


# Each frozen trajectory SVG and the plot flags that draw it.
FROZEN_SVGS = {
    "traj_mig_dmig.svg": ["--x", "mig", "--y", "dmig"],
    "traj_scc_dmig_y0-2.svg": ["--x", "scc", "--y", "dmig", "--y-range", "0:2"],
}


class TestPlot:
    def make_series(self, tmp_path):
        args = ["synth", "--family", "trajectory", "--n", "300", "--epochs", "3",
                "--noise-start", "5.0", "--noise-end", "0.05",
                "--out-dir", str(tmp_path)]
        assert main(args) == 0
        datasets = sorted(str(p) for p in tmp_path.glob("trajectory_epoch*.csv"))
        out = tmp_path / "traj.series"
        assert main(["eval", *datasets, "--out", str(out)]) == 0
        return out

    @pytest.mark.parametrize("golden, flags", FROZEN_SVGS.items())
    def test_svg_bytes_frozen(self, tmp_path, golden, flags):
        # The golden SVGs are written by these same synth, eval and plot
        # calls when this file runs as a script.
        series = self.make_series(tmp_path)
        out = tmp_path / golden
        assert main(["plot", str(series), *flags, "--out", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN / golden).read_bytes()

    def test_scatter_written(self, tmp_path):
        series = self.make_series(tmp_path)
        assert main(["plot", str(series), "--x", "scc", "--y", "dmig"]) == 0
        svg = tmp_path / "traj_scc_dmig.svg"
        assert svg.read_text().startswith("<svg")

    def test_fixed_x_range_written(self, tmp_path):
        series = self.make_series(tmp_path)
        out = tmp_path / "fixed.svg"
        args = ["plot", str(series), "--x", "scc", "--y", "dmig", "--x-range", "0:3"]
        assert main([*args, "--out", str(out)]) == 0
        assert out.read_text().startswith("<svg")

    def test_malformed_range_is_usage_error(self, tmp_path, capsys):
        series = tmp_path / "unread.series"
        with pytest.raises(SystemExit) as exc:
            main(["plot", str(series), "--x", "scc", "--y", "dmig", "--x-range", "3"])
        assert exc.value.code == 2
        assert "expected 'lo:hi'" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--y-range", "--x-range"])
    def test_infinite_range_is_usage_error(self, tmp_path, capsys, flag):
        series = self.make_series(tmp_path)
        capsys.readouterr()
        out = tmp_path / "inf.svg"
        args = ["plot", str(series), "--x", "mig", "--y", "dmig", flag, "0:inf"]
        assert main([*args, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "must be finite" in err
        assert err.count("\n") == 1
        assert not out.exists()

    def test_same_axis_rejected(self, tmp_path):
        series = self.make_series(tmp_path)
        assert main(["plot", str(series), "--x", "mig", "--y", "mig"]) == 2

    @pytest.mark.parametrize(
        "dmig, flags, axis",
        [
            # A lone value's +-0.5 is absorbed at 1e16: a zero-width y axis.
            pytest.param(1e16, [], "the y axis", id="zero-width"),
            pytest.param(0.5, ["--x-range=-1e308:1e308"], "the x axis", id="overflowing-width"),
        ],
    )
    def test_unusable_axis_width_is_usage_error(self, tmp_path, capsys, dmig, flags, axis):
        series = tmp_path / "hand.series"
        write_series([(t, report(("p", 0.1 * t, dmig))) for t in (0, 1)], series)
        out = tmp_path / "p.svg"
        assert main(["plot", str(series), "--x", "mig", "--y", "dmig", *flags,
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {axis} range ") and err.count("\n") == 1
        assert not out.exists()

    def test_negative_range_in_the_equals_form(self, tmp_path):
        series = self.make_series(tmp_path)
        out = tmp_path / "neg.svg"
        args = ["plot", str(series), "--x", "mig", "--y", "dmig", "--x-range=-1:3"]
        assert main([*args, "--out", str(out)]) == 0
        # The first x tick is labelled with the range's negative lower bound.
        assert 'text-anchor="middle" font-family="sans-serif">-1</text>' in out.read_text()

    def test_single_epoch_rejected(self, tmp_path):
        p = ideal_binary(tmp_path)
        series = tmp_path / "one.series"
        assert main(["eval", str(p), "--out", str(series)]) == 0
        text = series.read_text()
        assert "#kind report" in text
        ds2 = tmp_path / "one_real.series"
        # force a real single-epoch series via two evals then truncation
        p2 = ideal_binary(tmp_path, "p2.csv")
        assert main(["eval", str(p), str(p2), "--out", str(ds2)]) == 0
        lines = ds2.read_text().splitlines()
        cut = lines.index("end") + 1
        ds2.write_text("\n".join(lines[:cut]) + "\n")
        assert main(["plot", str(ds2), "--x", "mig", "--y", "dmig"]) == 2


class TestExitCodes:
    # The ids keep the case names the list had when it also held the
    # --jitter and --seed cases, now in test_tie_noise_flags_are_usage_errors.
    @pytest.mark.parametrize(
        "flags",
        [
            pytest.param(["--k", "0"], id="flags0"),
            pytest.param(["--workers", "0"], id="flags3"),
        ],
    )
    def test_invalid_flag_value_is_usage_error(self, tmp_path, capsys, flags):
        p = ideal_binary(tmp_path)
        assert main(["eval", str(p), *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "d.report").exists()

    @pytest.mark.parametrize("flag", ["--jitter", "--seed"])
    @pytest.mark.parametrize("command", ["eval", "oracle"])
    def test_tie_noise_flags_are_usage_errors(self, tmp_path, capsys, command, flag):
        # The tie-breaking jitter and its seed are constants of the estimators.
        p = ideal_binary(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main([command, str(p), flag, "0"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 0" in capsys.readouterr().err
        assert not (tmp_path / "d.report").exists()

    @pytest.mark.parametrize("case", ["eval_out", "plot_out", "eval_report", "eval_series"])
    def test_output_that_is_an_input_is_refused(self, tmp_path, capsys, monkeypatch, case):
        if case == "plot_out":
            target = TestPlot().make_series(tmp_path)
        else:
            name = {"eval_out": "d.csv", "eval_report": "d.report", "eval_series": "d.series"}
            target = ideal_binary(tmp_path, name[case])
        monkeypatch.chdir(tmp_path)
        args = {
            # A relative --out names the input given by its absolute path.
            "eval_out": ["eval", str(target), "--out", target.name],
            "plot_out": ["plot", str(target), "--x", "mig", "--y", "dmig",
                         "--out", target.name],
            # The default output of eval is the first input with its suffix.
            "eval_report": ["eval", str(target)],
            "eval_series": ["eval", str(target), str(ideal_binary(tmp_path, "e1.csv"))],
        }[case]
        before = target.read_bytes()
        reads = []
        for name in ("read_dataset", "read_series"):
            read = getattr(cli, name)
            monkeypatch.setattr(cli, name, lambda *a, read=read: reads.append(a) or read(*a))
        capsys.readouterr()
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert reads == []
        assert target.read_bytes() == before

    @pytest.mark.parametrize("case", ["eval", "plot", "eval_missing"])
    def test_out_that_is_a_directory_is_refused_before_reading(
        self, tmp_path, capsys, monkeypatch, case
    ):
        outdir = tmp_path / "out"
        outdir.mkdir()
        args = {
            "eval": ["eval", str(ideal_binary(tmp_path))],
            "plot": ["plot", str(TestPlot().make_series(tmp_path)), "--x", "mig", "--y", "dmig"],
            # The directory is named, not the input that is missing.
            "eval_missing": ["eval", str(tmp_path / "missing.csv")],
        }[case]
        calls = []
        for name in ("read_dataset", "read_series", "render_series_scatter"):
            monkeypatch.setattr(cli, name, lambda *a, name=name: calls.append(name))
        capsys.readouterr()
        assert main([*args, "--out", str(outdir)]) == 2
        assert calls == []
        err = capsys.readouterr().err
        assert err.startswith(f"error: output {outdir} ") and err.count("\n") == 1
        assert "missing.csv" not in err

    def test_estimation_failure_exits_one(self, tmp_path, capsys):
        rng = np.random.default_rng(22)
        ds = Dataset(
            latents=rng.standard_normal((200, 2)),
            attributes=(SampleColumn(np.full(200, 0.5), kind="continuous"),),
        )
        p = tmp_path / "flat.csv"
        write_dataset(ds, p)
        assert main(["eval", str(p)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "flat.report").exists()

    @pytest.mark.parametrize("out", ["missing/r.report", "."])
    def test_unwritable_out_is_operational_error(self, tmp_path, capsys, out):
        p = ideal_binary(tmp_path)
        assert main(["eval", str(p), "--out", str(tmp_path / out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_out_in_missing_directory_fails_before_estimating(
        self, tmp_path, capsys, monkeypatch
    ):
        p = ideal_binary(tmp_path)
        calls = []
        monkeypatch.setattr("dmig.cli.evaluate", lambda *args, **kw: calls.append(args))
        assert main(["eval", str(p), "--out", str(tmp_path / "nodir" / "r.report")]) == 2
        assert calls == []
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.endswith(f" {tmp_path / 'nodir'}\n")

    def test_plot_out_in_missing_directory_fails_before_rendering(
        self, tmp_path, capsys, monkeypatch
    ):
        series = TestPlot().make_series(tmp_path)
        calls = []
        monkeypatch.setattr(
            "dmig.cli.render_series_scatter", lambda *args: calls.append(args) or ""
        )
        capsys.readouterr()
        out = tmp_path / "nodir" / "p.svg"
        assert main(["plot", str(series), "--x", "mig", "--y", "dmig", "--out", str(out)]) == 2
        assert calls == []
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.endswith(f" {tmp_path / 'nodir'}\n")

    def test_plot_of_malformed_series_is_operational_error(self, tmp_path, capsys):
        series = TestPlot().make_series(tmp_path)
        series.write_text(series.read_text().replace("config k=3 ", "config k ", 1))
        capsys.readouterr()
        assert main(["plot", str(series), "--x", "mig", "--y", "dmig"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {series}:") and err.count("\n") == 1

    @pytest.mark.parametrize("command, suffix", [("eval", ".csv"), ("plot", ".series"),
                                                 ("oracle", ".truth")])
    def test_undecodable_byte_is_operational_error(self, tmp_path, capsys, command, suffix):
        p = ideal_binary(tmp_path)
        write_truth("gaussian_pair", gaussian_truth(0.8), tmp_path / "d.truth")
        assert main(["eval", str(p), str(p), "--out", str(tmp_path / "d.series")]) == 0
        bad = tmp_path / f"d{suffix}"
        lines = bad.read_bytes().splitlines(keepends=True)
        bad.write_bytes(b"".join(lines[:2]) + b"\xff" + b"".join(lines[2:]))
        capsys.readouterr()
        args = {
            "eval": [str(p)],
            "plot": [str(tmp_path / "d.series"), "--x", "mig", "--y", "dmig"],
            "oracle": [str(p)],
        }[command]
        assert main([command, *args]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {bad}:3: not UTF-8 text (")
        assert captured.err.count("\n") == 1


class TestDeterminism:
    def run_twice(self, tmp_path, build):
        a = build(tmp_path / "a")
        b = build(tmp_path / "b")
        assert a.read_bytes() == b.read_bytes()

    def test_synth_bytes_stable(self, tmp_path):
        def build(d):
            d.mkdir()
            main(["synth", "--family", "discrete_joint", "--n", "500",
                  "--out-dir", str(d)])
            return d / "discrete_joint.csv"

        self.run_twice(tmp_path, build)

    def test_eval_bytes_stable(self, tmp_path):
        src = ideal_binary(tmp_path)

        def build(d):
            d.mkdir()
            out = d / "r.report"
            main(["eval", str(src), "--out", str(out)])
            return out

        self.run_twice(tmp_path, build)

    def test_plot_bytes_stable(self, tmp_path):
        shared = tmp_path / "shared"
        shared.mkdir()
        series = TestPlot().make_series(shared)

        def build(d):
            d.mkdir()
            out = d / "p.svg"
            main(["plot", str(series), "--x", "mig", "--y", "dmig",
                  "--out", str(out)])
            return out

        self.run_twice(tmp_path, build)


class TestHelp:
    @pytest.mark.parametrize("cmd", [[], ["eval"], ["synth"], ["oracle"], ["plot"]])
    def test_help_exits_zero(self, cmd, capsys):
        with pytest.raises(SystemExit) as exc:
            main([*cmd, "--help"])
        assert exc.value.code == 0
        assert "usage" in capsys.readouterr().out


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        series = TestPlot().make_series(Path(tmp))
        for name, flags in FROZEN_SVGS.items():
            assert main(["plot", str(series), *flags, "--out", str(GOLDEN / name)]) == 0
            print(f"wrote {GOLDEN / name}", file=sys.stderr)
