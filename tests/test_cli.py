import os
import re
import subprocess
import sys
from io import StringIO
from pathlib import Path

import numpy as np
import pytest

import phimi
from phimi import (
    GaussianSpec,
    MissingValueError,
    ParseError,
    covariances_under_h0,
    gaussian_model,
    limit_quantile_ztz,
    sample_gaussian,
)
from phimi.asymptotics import normal_margin
from phimi.cli import ingest_csv, main, run


def write_gaussian_csv(path, rho=0.6, n=60, seed=1):
    s = sample_gaussian(GaussianSpec(rho), n, seed)
    lines = ["x,y"] + [f"{float(a)!r},{float(b)!r}" for a, b in zip(s.x, s.y)]
    path.write_text("\n".join(lines) + "\n")
    return path


def write_categorical_csv(path, n=80, seed=2, dependent=True):
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 2, n)
    y = x if dependent else rng.integers(0, 2, n)
    lines = ["x,y"] + [f"a{a},b{b}" for a, b in zip(x, y)]
    path.write_text("\n".join(lines) + "\n")
    return path


def invoke(argv):
    out = StringIO()
    code = run(argv, out=out)
    return code, out.getvalue()


class TestIngestCsv:
    def test_three_row_real(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("x,y\n1,2\n3,4\n5,6\n")
        s = ingest_csv(str(f), "x", "y")
        assert s.n == 3
        assert s.kind == "real"
        assert s.x.tolist() == [1.0, 3.0, 5.0]

    def test_missing_column(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("x,y\n1,2\n")
        with pytest.raises(ParseError, match="z"):
            ingest_csv(str(f), "z", "y")

    def test_non_numeric_reports_line(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("x,y\n1,2\n3,oops\n5,6\n")
        with pytest.raises(ParseError, match="line 3"):
            ingest_csv(str(f), "x", "y")

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
    def test_non_finite_reports_line(self, tmp_path, cell):
        f = tmp_path / "d.csv"
        f.write_text(f"x,y\n1,2\n3,4\n{cell},6\n")
        with pytest.raises(ParseError, match="line 4"):
            ingest_csv(str(f), "x", "y")

    def test_non_finite_estimate_exits_nonzero(self, tmp_path, capsys):
        f = write_gaussian_csv(tmp_path / "d.csv")
        lines = f.read_text().splitlines()
        lines[5] = "nan," + lines[5].split(",")[1]
        f.write_text("\n".join(lines) + "\n")
        code = main(["estimate", "--csv", str(f), "--x", "x", "--y", "y",
                     "--model", "gaussian", "--seed", "3"])
        assert code == 2
        assert "line 6" in capsys.readouterr().err

    def test_duplicated_column_is_named(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("x,y,x\n1,2,3\n4,5,6\n")
        with pytest.raises(ParseError, match="line 1: column 'x' appears 2 times"):
            ingest_csv(str(f), "x", "y")
        # a repeated column that is not read is no ambiguity
        assert ingest_csv(str(f), "y", "y").x.tolist() == [2.0, 5.0]

    def test_empty_cell(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("x,y\n1,2\n,4\n")
        with pytest.raises(MissingValueError):
            ingest_csv(str(f), "x", "y")

    def test_byte_order_mark_is_dropped(self, tmp_path):
        plain = write_gaussian_csv(tmp_path / "d.csv", n=10)
        marked = tmp_path / "bom.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        a, b = ingest_csv(str(plain), "x", "y"), ingest_csv(str(marked), "x", "y")
        assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)

    def test_categorical_keeps_tokens(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("x,y\nred,up\nblue,down\nred,down\n")
        s = ingest_csv(str(f), "x", "y", kind="categorical")
        assert s.kind == "categorical"
        assert s.x.tolist() == ["red", "blue", "red"]


class TestEstimateCommand:
    def test_gaussian_estimate(self, tmp_path):
        f = write_gaussian_csv(tmp_path / "d.csv")
        code, text = invoke(["estimate", "--csv", str(f), "--x", "x", "--y", "y",
                             "--model", "gaussian", "--seed", "3"])
        assert code == 0
        assert "i_hat=" in text
        assert "converged=true" in text
        assert "method=newton" in text

    def test_fgm_estimate_with_gamma(self, tmp_path):
        f = write_gaussian_csv(tmp_path / "d.csv", rho=0.3)
        code, text = invoke(["estimate", "--csv", str(f), "--x", "x", "--y", "y",
                             "--model", "fgm", "--gamma", "2.0", "--seed", "1"])
        assert code == 0
        assert "beta=" in text
        assert "method=lbfgsb" in text


class TestTestCommand:
    def test_failed_observed_fit_exits_nonzero(self, tmp_path, capsys):
        # Pearson r = 0.80, but chi-square fits of x, y, xy on values up to
        # 15 do not converge: no statistic is reported
        i = np.arange(40)
        x = 7 * i % 10
        y = x + 3 * i % 7
        f = tmp_path / "d.csv"
        f.write_text("x,y\n" + "".join(f"{a},{b}\n" for a, b in zip(x, y)))
        code = main(["test", "--csv", str(f), "--x", "x", "--y", "y", "--divergence", "chisq",
                     "--model", "expbilinear:x,y,xy", "--route", "bootstrap",
                     "--b-reps", "200", "--seed", "3"])
        text, err = capsys.readouterr()
        assert code == 2 and "statistic=" not in text
        assert "fit of the observed sample did not converge" in err

    def test_bootstrap_route_exit_zero_either_way(self, tmp_path):
        f = write_gaussian_csv(tmp_path / "d.csv", rho=0.0, n=40)
        code, text = invoke(["test", "--csv", str(f), "--x", "x", "--y", "y",
                             "--model", "expbilinear:xy", "--route", "bootstrap",
                             "--alpha", "0.05", "--b-reps", "150", "--seed", "42"])
        assert code == 0
        assert "reject=" in text

    def test_bootstrap_critical_value_is_recorded(self, tmp_path):
        # a fixed CSV with ties: a change of the bootstrap's random stream
        # moves the critical value far beyond rounding
        f = tmp_path / "d.csv"
        rows = [(((7 * i) % 10 - 5) / 4, ((3 * i) % 7 - 3) / 4) for i in range(40)]
        f.write_text("x,y\n" + "".join(f"{a},{a + b}\n" for a, b in rows))
        code, text = invoke(["test", "--csv", str(f), "--x", "x", "--y", "y",
                             "--divergence", "chisq", "--model", "expbilinear:x,y,xy",
                             "--route", "bootstrap", "--b-reps", "200", "--alpha", "0.05",
                             "--seed", "3"])
        fields = dict(line.split("=", 1) for line in text.splitlines())
        assert code == 0 and fields["reject"] == "true"
        assert float(fields["statistic"]) == pytest.approx(30.84088548976196, rel=1e-9)
        assert float(fields["critical_value"]) == pytest.approx(3.932335754050917, rel=1e-9)

    # Outputs recorded when every bootstrap stack was built by sorting each
    # resample's values; stacks built from the sample's level codes print
    # the same text, to the last digit
    RECORDED = {
        "tied": ("seed=3\nstatistic=2.4175915159521346\ncritical_value=4.47438186228081\n"
                 "p_value=0.15841584158415842\nreject=false\nroute=bootstrap\nalpha=0.05\n"),
        "categorical": ("seed=3\nstatistic=9.361342567938339\ncritical_value=9.561690263023216\n"
                        "p_value=0.07920792079207921\nreject=false\nroute=bootstrap\n"
                        "alpha=0.05\n"),
    }

    @pytest.mark.parametrize("data", list(RECORDED))
    def test_bootstrap_output_is_recorded_text(self, tmp_path, data):
        rng = np.random.default_rng(17)
        x = rng.standard_normal(120)
        y = 0.1 * x + np.sqrt(0.99) * rng.standard_normal(120)
        a = rng.integers(0, 3, 90)
        b = np.where(rng.random(90) < 0.15, a, rng.integers(0, 3, 90))
        f = tmp_path / "d.csv"
        if data == "tied":   # one decimal: ties, and both -0.0 and 0.0
            f.write_text("x,y\n" + "".join(f"{u:.1f},{v:.1f}\n" for u, v in zip(x, y)))
            flags = ["--divergence", "chisq", "--model", "expbilinear:x,y,xy"]
        else:
            f.write_text("x,y\n" + "".join(f"l{u},m{v}\n" for u, v in zip(a, b)))
            flags = ["--kind", "categorical", "--divergence", "kl", "--model", "finite"]
        code, text = invoke(["test", "--csv", str(f), "--x", "x", "--y", "y", *flags,
                             "--route", "bootstrap", "--b-reps", "100", "--seed", "3"])
        assert code == 0 and text == self.RECORDED[data]

    def test_chisq_route_categorical(self, tmp_path):
        f = write_categorical_csv(tmp_path / "d.csv")
        code, text = invoke(["test", "--csv", str(f), "--x", "x", "--y", "y",
                             "--kind", "categorical", "--model", "finite",
                             "--route", "chisq", "--alpha", "0.01", "--seed", "0"])
        assert code == 0
        assert "reject=true" in text

    def test_ztz_route_rejects_finite_model(self, tmp_path, capsys):
        f = write_categorical_csv(tmp_path / "d.csv")
        assert main(["test", "--csv", str(f), "--x", "x", "--y", "y",
                     "--kind", "categorical", "--model", "finite",
                     "--route", "ztz", "--seed", "0"]) == 2
        assert "ztz route requires an exponential bilinear model" in capsys.readouterr().err

    def test_output_file_deterministic(self, tmp_path):
        f = write_gaussian_csv(tmp_path / "d.csv", rho=0.5, n=30)
        args = ["test", "--csv", str(f), "--x", "x", "--y", "y",
                "--model", "expbilinear:xy", "--route", "bootstrap",
                "--b-reps", "120", "--seed", "7", "--format", "csv"]
        out1 = tmp_path / "r1.csv"
        out2 = tmp_path / "r2.csv"
        assert invoke(args + ["--out", str(out1)])[0] == 0
        assert invoke(args + ["--out", str(out2)])[0] == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert out1.read_text().startswith("phimi-format=1\n")

    def test_ztz_route_critical_value_from_sample_moments(self, tmp_path):
        f = write_gaussian_csv(tmp_path / "d.csv", rho=0.3, n=40, seed=4)
        code, text = invoke(["test", "--csv", str(f), "--x", "x", "--y", "y",
                             "--model", "gaussian", "--route", "ztz",
                             "--alpha", "0.05", "--seed", "11"])
        assert code == 0
        sample = ingest_csv(str(f), "x", "y")
        cov = covariances_under_h0(gaussian_model(), sample.x, sample.y)
        expected = limit_quantile_ztz(cov, 0.05, seed=11)
        assert f"critical_value={expected!r}\n" in text

    def test_ztz_route_has_no_m_flag(self, tmp_path):
        f = write_gaussian_csv(tmp_path / "d.csv", n=30)
        assert main(["test", "--csv", str(f), "--x", "x", "--y", "y",
                     "--model", "gaussian", "--route", "ztz", "--m", "1000",
                     "--seed", "1"]) == 1

    @pytest.mark.parametrize("route", ["ztz", "chisq"])
    def test_b_reps_ignored_off_the_bootstrap_route(self, tmp_path, route):
        if route == "ztz":
            f = write_gaussian_csv(tmp_path / "d.csv", n=40)
            flags = ["--model", "gaussian"]
        else:
            f = write_categorical_csv(tmp_path / "d.csv")
            flags = ["--model", "finite", "--kind", "categorical"]
        code, text = invoke(["test", "--csv", str(f), "--x", "x", "--y", "y", *flags,
                             "--route", route, "--b-reps", "10", "--seed", "3"])
        assert code == 0
        assert f"route={route}\n" in text

    def test_seed_printed_when_generated(self, tmp_path):
        f = write_gaussian_csv(tmp_path / "d.csv", n=30)
        code, text = invoke(["test", "--csv", str(f), "--x", "x", "--y", "y",
                             "--model", "expbilinear:xy", "--route", "bootstrap",
                             "--b-reps", "100"])
        assert code == 0
        assert text.startswith("seed=")


class TestBootstrapCommand:
    def test_prints_critical_and_summary(self, tmp_path):
        f = write_gaussian_csv(tmp_path / "d.csv", n=30)
        code, text = invoke(["bootstrap", "--csv", str(f), "--x", "x", "--y", "y",
                             "--model", "expbilinear:xy", "--b-reps", "120",
                             "--seed", "9"])
        assert code == 0
        assert "b_alpha=" in text
        assert "replicate_mean=" in text


class TestSelectCommand:
    def test_reports_scores_and_choice(self, tmp_path):
        f = write_gaussian_csv(tmp_path / "d.csv", rho=0.7, n=100, seed=5)
        code, text = invoke(["select", "--csv", str(f), "--x", "x", "--y", "y",
                             "--candidates", "expbilinear:xy;expbilinear:x,y",
                             "--k", "4", "--seed", "2"])
        assert code == 0
        assert "candidate_0=" in text
        assert "selected=0" in text

    @pytest.mark.parametrize("candidates,expect", [
        ("fgm;fgm", None),
        ("fgm;expbilinear:xy", 1),
    ])
    def test_leave_one_out_disqualification(self, tmp_path, capsys, candidates, expect):
        # every 1-pair held-out fold fails the FGM rank transform
        f = write_gaussian_csv(tmp_path / "d.csv", n=12)
        code = main(["select", "--csv", str(f), "--x", "x", "--y", "y",
                     "--candidates", candidates, "--k", "12", "--seed", "0"])
        text, err = capsys.readouterr()
        if expect is None:
            assert code == 2 and "selected=" not in text
            assert "every candidate was disqualified" in err
        else:
            assert code == 0
            assert "candidate_0=fgm score=-inf (disqualified)" in text
            assert f"selected={expect}" in text


class TestPowerCommand:
    CONFIG = """[study]
family = finite
k = 2
grid = 0, 0.68
n = 30
reps = 150
alpha = 0.01
tests = kl, chisq
seed = 99
"""

    def test_runs_and_is_byte_identical(self, tmp_path):
        cfg = tmp_path / "study.cfg"
        cfg.write_text(self.CONFIG)
        out1 = tmp_path / "t1.csv"
        out2 = tmp_path / "t2.csv"
        code, text = invoke(["power", "--config", str(cfg), "--out", str(out1)])
        assert code == 0
        assert "seed=99" in text
        assert invoke(["power", "--config", str(cfg), "--out", str(out2)])[0] == 0
        assert out1.read_bytes() == out2.read_bytes()
        from phimi import parse_results

        table = parse_results(out1.read_text())
        assert len(table.rows) == 4

    @pytest.mark.parametrize("alpha", ["1.5", "-0.2"])
    def test_alpha_outside_unit_interval_exits_2(self, tmp_path, capsys, alpha):
        cfg = tmp_path / "study.cfg"
        cfg.write_text(self.CONFIG.replace("alpha = 0.01", f"alpha = {alpha}"))
        code = main(["power", "--config", str(cfg), "--out", str(tmp_path / "t.csv")])
        assert code == 2
        assert "alpha must be in (0, 1)" in capsys.readouterr().err
        assert not (tmp_path / "t.csv").exists()

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = tmp_path / "study.cfg"
        cfg.write_text(self.CONFIG)
        out = tmp_path / "t.csv"
        code, text = invoke(["power", "--config", str(cfg), "--out", str(out),
                             "--seed", "123"])
        assert code == 0
        assert "seed=123" in text

    def test_readme_example_runs(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = re.search(r"```ini\n(\[study\]\n.*?)```", readme, re.S).group(1)
        assert "reps = 10000" in block and ";" in block   # inline comments included
        cfg = tmp_path / "study.cfg"
        cfg.write_text(block.replace("reps = 10000", "reps = 100"))
        out = tmp_path / "t.csv"
        code, text = invoke(["power", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        assert "seed=42" in text
        rows = phimi.parse_results(out.read_text()).rows
        assert {(r.test, r.reps, r.n) for r in rows} == {("kl", 100, 30), ("chisq", 100, 30)}

    @pytest.mark.parametrize("edit, message", [
        (("reps = 150", "reps = 150\nbreps = 5"), "unknown [study] key 'breps'"),
        (("n = 30\n", ""), "[study] needs the key 'n'"),
    ])
    def test_key_errors_are_named(self, tmp_path, capsys, edit, message):
        cfg = tmp_path / "study.cfg"
        cfg.write_text(self.CONFIG.replace(*edit))
        with pytest.raises(ParseError) as err:
            run(["power", "--config", str(cfg), "--out", str(tmp_path / "t.csv")],
                out=StringIO())
        assert message in str(err.value)
        assert main(["power", "--config", str(cfg), "--out", str(tmp_path / "t.csv")]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "t.csv").exists()

    def test_has_no_threads_flag(self, tmp_path):
        cfg = tmp_path / "study.cfg"
        cfg.write_text(self.CONFIG)
        assert main(["power", "--config", str(cfg), "--out", str(tmp_path / "t.csv"),
                     "--threads", "2"]) == 1
        assert not (tmp_path / "t.csv").exists()


class TestLimitsCommand:
    def test_finite_route(self):
        code, text = invoke(["limits", "--k1", "2", "--k2", "2", "--alpha", "0.01"])
        assert code == 0
        assert "df=1" in text
        assert "6.63" in text

    def test_ztz_route_normal_margins(self):
        for sigma in (1.0, 2.5):
            code, text = invoke(["limits", "--model", "expbilinear:x2,y2,xy",
                                 "--alpha", "0.05", "--sigma", repr(sigma),
                                 "--n-draws", "5000", "--seed", "3"])
            assert code == 0
            margin = normal_margin(sigma)
            cov = covariances_under_h0(gaussian_model(), margin, margin)
            expected = limit_quantile_ztz(cov, 0.05, n_draws=5000, seed=3)
            assert f"critical_value={expected!r}\n" in text

    def test_has_no_m_flag(self):
        assert main(["limits", "--model", "expbilinear:xy", "--m", "1000",
                     "--seed", "1"]) == 1


class TestExitCodes:
    def test_unknown_subcommand_is_usage_error(self):
        assert main(["frobnicate"]) == 1

    def test_usage_error_on_missing_flags(self):
        assert main(["estimate"]) == 1

    def test_runtime_error_on_missing_file(self):
        assert main(["estimate", "--csv", "/nonexistent.csv", "--x", "x",
                     "--y", "y", "--model", "gaussian", "--seed", "1"]) == 2

    def test_bad_basis_is_runtime_error(self):
        assert main(["limits", "--model", "expbilinear:bogus", "--seed", "1"]) == 2

    def test_bad_basis_message_has_no_repr_quotes(self, capsys):
        assert main(["limits", "--model", "expbilinear:foo", "--seed", "1"]) == 2
        assert capsys.readouterr().err == "error: unknown basis name 'foo'\n"

    @pytest.mark.parametrize("sigma", ["0", "-1", "nan"])
    def test_nonpositive_sigma_is_runtime_error(self, sigma):
        assert main(["limits", "--model", "expbilinear:xy", f"--sigma={sigma}",
                     "--seed", "1"]) == 2

    def test_zero_draw_count_is_runtime_error(self):
        assert main(["limits", "--model", "expbilinear:xy", "--n-draws", "0",
                     "--seed", "1"]) == 2


# an FGM fit and the rank baselines, on a small sample
RANK_CODE = """
import sys, numpy as np
from phimi import (DivergenceSpec, FgmCopulaModel, ObjectiveContext, PairedSample,
                   estimate, kendall_test, spearman_test)
rng = np.random.default_rng(0)
x = rng.standard_normal(30)
sample = PairedSample(x, np.round(x + rng.standard_normal(30), 1))
estimate(ObjectiveContext(DivergenceSpec(1.0), FgmCopulaModel(), sample))
spearman_test(sample)
kendall_test(sample)
sys.exit('scipy.stats' in sys.modules)
"""


@pytest.mark.parametrize("code", [
    "import sys, phimi, phimi.cli; sys.exit('scipy.stats' in sys.modules)",
    RANK_CODE,
], ids=["import", "ranks"])
def test_import_leaves_scipy_stats_unloaded(code):
    # scipy.stats takes most of a bare import, and no phimi code needs it:
    # ranks, tie counts and the baselines' laws are phimi's own or scipy.special's
    src = os.path.dirname(os.path.dirname(phimi.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
