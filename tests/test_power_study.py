from io import StringIO

import numpy as np
import pytest

from phimi import (
    DegenerateInputError,
    DivergenceSpec,
    FiniteMixtureSpec,
    GaussianSpec,
    ObjectiveContext,
    OptimFailureError,
    ParseError,
    PhimiError,
    PowerRow,
    PowerStudyConfig,
    PowerTable,
    chi2_quantile,
    covariances_under_h0,
    emit_results,
    estimate,
    gaussian_model,
    limit_quantile_ztz,
    parse_results,
    plugin_statistics,
    run_power_study,
    sample_finite,
    sample_gaussian,
)
import phimi.estimator
import phimi.models
import phimi.power_study
from phimi.asymptotics import normal_margin
from phimi.cli import run as cli_run
from phimi.errors import RouteMismatchError
from phimi.estimator import estimate_samples
from phimi.models import encode_tokens
from phimi.power_study import _phi_critical_values


def small_finite_cfg(**overrides):
    base = dict(family="finite", grid=(0.0, 0.68), n=30, reps=200,
                alpha=0.01, tests=("kl", "chisq"), seed=5, k=2)
    base.update(overrides)
    return PowerStudyConfig(**base)


class TestConfigValidation:
    def test_unknown_test(self):
        with pytest.raises(ValueError):
            small_finite_cfg(tests=("kl", "mystery"))

    def test_baselines_need_real_family(self):
        with pytest.raises(ValueError):
            small_finite_cfg(tests=("kl", "pearson"))

    def test_chisq_route_needs_finite_family(self):
        with pytest.raises(RouteMismatchError):
            PowerStudyConfig(family="fgm", grid=(0.0,), n=50, reps=100,
                             alpha=0.05, tests=("kl",), seed=1,
                             calibration={"kl": "chisq"})

    def test_finite_family_takes_no_bootstrap(self):
        # its plug-in statistic is calibrated by the chi-square law; the
        # bootstrap route used to fail only at calibration
        with pytest.raises(RouteMismatchError, match="plug-in"):
            small_finite_cfg(calibration={"kl": "bootstrap"})

    def test_ztz_route_needs_gaussian_kl(self):
        with pytest.raises(RouteMismatchError):
            PowerStudyConfig(family="gaussian", grid=(0.0,), n=50, reps=100,
                             alpha=0.05, tests=("chisq",), seed=1,
                             calibration={"chisq": "ztz"})

    def test_minimum_replicates(self):
        with pytest.raises(ValueError):
            small_finite_cfg(reps=50)

    @pytest.mark.parametrize("alpha", [1.5, -0.2])
    def test_alpha_outside_unit_interval(self, alpha):
        # a baseline-only Gaussian study would otherwise report power 1 or 0
        with pytest.raises(ValueError, match=r"alpha must be in \(0, 1\)"):
            PowerStudyConfig(family="gaussian", grid=(0.0,), n=50, reps=100,
                             alpha=alpha, tests=("pearson", "kendall", "spearman"), seed=1)

    def test_empty_grid(self):
        with pytest.raises(ValueError):
            small_finite_cfg(grid=())

    @pytest.mark.parametrize("family, overrides, match", [
        ("finite", {"tests": ()}, "one or more distinct"),
        ("finite", {"tests": ("kl", "kl")}, "one or more distinct"),
        ("gaussian", {"tests": ("kendall", "kl", "kendall")}, "one or more distinct"),
        ("finite", {"n": 1}, "two observations"),
        ("gaussian", {"n": 0}, "two observations"),
        ("finite", {"k": 1}, "K >= 2"),
        ("finite", {"grid": (0.0, 1.5)}, "mixing weight"),
        ("gaussian", {"grid": (0.0, 1.0)}, r"\|rho\|"),
        ("gaussian", {"sigma": 0.0}, "sigma"),
        ("fgm", {"grid": (-1.5, 0.0)}, r"\|theta\|"),
        # every baseline sample would fail at n < 4
        ("gaussian", {"n": 3, "tests": ("kendall",)}, "n >= 4"),
        ("fgm", {"n": 2, "tests": ("kl", "pearson")}, "n >= 4"),
        # calibration names phi tests only; a misspelt one would be ignored
        ("gaussian", {"calibration": {"kendal": "ztz"}}, "unknown phi test 'kendal'"),
        ("gaussian", {"tests": ("kl", "kendall"), "calibration": {"kendall": "bootstrap"}},
         "unknown phi test 'kendall'"),
    ])
    def test_rejected_up_front(self, family, overrides, match):
        # each would fail late, mid-study, or emit a wrong table
        base = dict(family=family, grid=(0.0, 0.5), n=30, reps=100, alpha=0.05,
                    tests=("kl",), seed=1)
        base.update(overrides)
        with pytest.raises(ValueError, match=match):
            PowerStudyConfig(**base)

    def test_family_range_edges_accepted(self):
        assert small_finite_cfg(grid=(0.0, 1.0)).grid == (0.0, 1.0)
        PowerStudyConfig(family="fgm", grid=(-1.0, 1.0), n=2, reps=100, alpha=0.05,
                         tests=("kl",), seed=1)
        # k only sizes the finite family's table
        PowerStudyConfig(family="gaussian", grid=(-0.99, 0.99), n=30, reps=100, alpha=0.05,
                         tests=("kl",), seed=1, k=1)
        PowerStudyConfig(family="gaussian", grid=(0.0,), n=4, reps=100, alpha=0.05,
                         tests=("pearson", "spearman", "kendall"), seed=1)


class TestRunStudy:
    def test_deterministic_and_monotone(self):
        cfg = small_finite_cfg()
        t1 = run_power_study(cfg)
        t2 = run_power_study(cfg)
        assert t1 == t2
        for test in cfg.tests:
            powers = t1.power(test)
            assert powers[0.68] >= powers[0.0]
            assert all(0.0 <= p <= 1.0 for p in powers.values())

    def test_row_layout(self):
        cfg = small_finite_cfg()
        table = run_power_study(cfg)
        assert len(table.rows) == len(cfg.tests) * len(cfg.grid)
        assert [r.test for r in table.rows[:2]] == ["kl", "kl"]
        assert all(r.n == 30 and r.alpha == 0.01 for r in table.rows)

    def test_gaussian_family_with_baselines(self):
        cfg = PowerStudyConfig(family="gaussian", grid=(0.0, 0.8), n=40, reps=100,
                               alpha=0.05, tests=("kl", "pearson", "kendall"),
                               seed=3, ztz_draws=4000)
        table = run_power_study(cfg)
        assert table.power("pearson")[0.8] > 0.9
        assert table.power("kl")[0.8] > 0.8

    def test_fgm_bootstrap_route(self):
        cfg = PowerStudyConfig(family="fgm", grid=(0.0, 1.0), n=40, reps=100,
                               alpha=0.05, tests=("kl",), seed=4, b_reps=200)
        table = run_power_study(cfg)
        assert table.power("kl")[1.0] >= table.power("kl")[0.0]

    def test_power_nondecreasing_along_grid(self):
        # monotone in the mixture weight, up to 2 binomial standard errors
        cfg = small_finite_cfg(grid=(0.0, 0.28, 0.48, 0.68), reps=400)
        table = run_power_study(cfg)
        for test in cfg.tests:
            power = table.power(test)
            se = table.se(test)
            for lo, hi in zip(cfg.grid, cfg.grid[1:]):
                slack = 2.0 * np.hypot(se[lo], se[hi])
                assert power[hi] >= power[lo] - slack

    @pytest.mark.parametrize("seed, counts", [
        (1, [("kl", 0.0, 3), ("kl", 0.1, 63), ("kendall", 0.0, 7), ("kendall", 0.1, 57)]),
        (2, [("kl", 0.0, 8), ("kl", 0.1, 57), ("kendall", 0.0, 6), ("kendall", 0.1, 52)])])
    def test_gaussian_study_keeps_its_recorded_counts(self, seed, counts):
        # the benchmark's Gaussian study (perfbench gauss-ztz-n500): pins
        # every stacked KL fit's decision and the Kendall baseline's
        cfg = PowerStudyConfig(family="gaussian", grid=(0.0, 0.1), n=500, reps=100,
                               alpha=0.05, tests=("kl", "kendall"), seed=seed)
        rows = run_power_study(cfg).rows
        assert [(r.test, r.param, r.rejections) for r in rows] == counts
        assert all(r.reps == 100 for r in rows)

    @pytest.mark.parametrize("sigma", [1.0, 2.5])
    def test_ztz_critical_value_keeps_its_quantile_seed(self, sigma):
        # exact normal moments; the quantile still takes the calibration
        # stream's second integer
        cfg = PowerStudyConfig(family="gaussian", grid=(0.0,), n=40, reps=100,
                               alpha=0.05, tests=("kl",), seed=7, sigma=sigma,
                               ztz_draws=3000)
        calib_seq, _ = np.random.SeedSequence(cfg.seed).spawn(2)
        stream = np.random.default_rng(calib_seq)
        stream.integers(2**63)
        margin = normal_margin(sigma)
        cov = covariances_under_h0(gaussian_model(), margin, margin)
        expected = limit_quantile_ztz(cov, cfg.alpha, n_draws=cfg.ztz_draws,
                                      seed=int(stream.integers(2**63)))
        assert _phi_critical_values(cfg, calib_seq) == {"kl": expected}


def reference_plugin(divergence, sample, levels):
    """The per-table plug-in, built as a dict encoding and a scattered table."""
    tables = [{tok: i for i, tok in enumerate(side.tolist())} for side in levels]
    ix = [tables[0][tok] for tok in sample.x.tolist()]
    iy = [tables[1][tok] for tok in sample.y.tolist()]
    counts = np.zeros((len(tables[0]), len(tables[1])))
    np.add.at(counts, (ix, iy), 1.0)
    return reference_table_plugin(divergence, counts)


def reference_table_plugin(divergence, counts):
    """The plug-in of one contingency table, over its cells with q > 0."""
    p = counts / counts.sum()
    q = np.outer(p.sum(axis=1), p.sum(axis=0))
    mask = q > 0.0
    return float(divergence.phi(p[mask] / q[mask]) @ q[mask])


def sample_tables(samples, levels):
    """The samples' contingency tables over ``levels``, (R, K1, K2), from
    one encoding of all their tokens and one bincount."""
    k1, k2 = (len(side) for side in levels)
    x = encode_tokens(np.stack([s.x for s in samples]), levels[0])
    y = encode_tokens(np.stack([s.y for s in samples]), levels[1])
    cells = (np.arange(len(samples))[:, None] * k1 + x) * k2 + y
    return np.bincount(cells.ravel(), minlength=len(samples) * k1 * k2).reshape(-1, k1, k2)


class TestFiniteBatch:
    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("seed", [0, 11, 2024])
    def test_batched_statistics_match_reference(self, k, seed):
        n = 12 if k == 3 else 30   # k = 3 at n = 12 leaves some margins empty
        for param in (0.0, 0.4, 1.0):
            spec = FiniteMixtureSpec(k, param)
            samples = [sample_finite(spec, n, seq.spawn(2)[0])
                       for seq in np.random.SeedSequence(seed).spawn(300)]
            for div in (DivergenceSpec(1.0), DivergenceSpec(2.0), DivergenceSpec(0.5)):
                batch = plugin_statistics(div, sample_tables(samples, spec.levels))
                assert batch.shape == (300,)
                ref = [reference_plugin(div, s, spec.levels) for s in samples]
                np.testing.assert_allclose(batch, ref, rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("k, seed", [(2, 5), (3, 8)])
    def test_study_matches_replicate_loop(self, k, seed):
        # each grid point's tables come from one multinomial call on its
        # own stream; each is tested on its own
        cfg = small_finite_cfg(k=k, seed=seed, n=20, grid=(0.0, 0.3, 0.6))
        table = run_power_study(cfg)
        calib_seq, mc_seq = np.random.SeedSequence(cfg.seed).spawn(2)
        crit = chi2_quantile(1.0 - cfg.alpha, (k - 1) ** 2)
        for param, gseq in zip(cfg.grid, mc_seq.spawn(len(cfg.grid))):
            probs = FiniteMixtureSpec(k, param).cell_probs().ravel()
            counts = np.random.default_rng(gseq).multinomial(cfg.n, probs, size=cfg.reps)
            for test, gamma in (("kl", 1.0), ("chisq", 2.0)):
                expected = sum(
                    2.0 * cfg.n * reference_table_plugin(DivergenceSpec(gamma),
                                                         c.reshape(k, k)) > crit
                    for c in counts)
                row, = (r for r in table.rows if r.test == test and r.param == param)
                assert (row.rejections, row.reps) == (expected, cfg.reps)

    def test_cli_study_keeps_its_recorded_counts(self, tmp_path):
        # pins the finite stream: a change to how tables are drawn moves these
        cfg = tmp_path / "study.cfg"
        cfg.write_text("[study]\nfamily = finite\nk = 2\ngrid = 0, 0.48\nn = 30\n"
                       "reps = 200\nalpha = 0.01\ntests = kl, chisq\nseed = 4242\n")
        out = tmp_path / "table.csv"
        assert cli_run(["power", "--config", str(cfg), "--out", str(out)],
                       out=StringIO()) == 0
        rows = parse_results(out.read_text()).rows
        assert [(r.test, r.param, r.rejections, r.reps) for r in rows] == [
            ("kl", 0.0, 5, 200), ("kl", 0.48, 124, 200),
            ("chisq", 0.0, 4, 200), ("chisq", 0.48, 116, 200)]

    @pytest.mark.parametrize("seed, kl, chisq", [
        (1, [9, 162, 578, 931], [6, 135, 538, 915]),
        (2, [12, 165, 580, 938], [11, 143, 533, 923]),
    ])
    def test_table2_design_keeps_its_counts(self, seed, kl, chisq):
        # the benchmark's Table 2 design; its tables pin the plug-in statistics
        table = run_power_study(PowerStudyConfig(
            family="finite", k=2, grid=(0, 0.28, 0.48, 0.68), n=30, reps=1000,
            alpha=0.01, tests=("kl", "chisq"), seed=seed))
        assert {t: [r.rejections for r in table.rows if r.test == t]
                for t in ("kl", "chisq")} == {"kl": kl, "chisq": chisq}
        assert all(r.reps == 1000 for r in table.rows)


def replicate_streams(cfg, g=0):
    """The samples and estimate seeds of the replicates at the g-th grid
    point of a Gaussian study, drawn from the streams run_power_study uses;
    the seeds compare by their ``spawn_key``."""
    _, mc_seq = np.random.SeedSequence(cfg.seed).spawn(2)
    streams = [seq.spawn(2) for seq in mc_seq.spawn(len(cfg.grid))[g].spawn(cfg.reps)]
    spec = GaussianSpec(cfg.grid[g], cfg.sigma)
    return [sample_gaussian(spec, cfg.n, s) for s, _ in streams], [e for _, e in streams]


def gaussian_cfg(n, rho, test, **overrides):
    base = dict(family="gaussian", grid=(rho,), n=n, reps=100, alpha=0.05, tests=(test,),
                seed=11, b_reps=100, ztz_draws=2000)
    base.update(overrides)
    return PowerStudyConfig(**base)


def check_study_fits(monkeypatch, cfg):
    """The stacked fits of one grid point's replicates, as the study makes
    them in stacks of about 30 rows, against ``estimate`` on each
    replicate's own context; returns the stacked fits."""
    (test,) = cfg.tests
    div = DivergenceSpec(1.0 if test == "kl" else 2.0)
    samples, seeds = replicate_streams(cfg)
    full = gaussian_model()._stack_size(cfg.n, cfg.n, cfg.n)
    monkeypatch.setattr(phimi.models, "_STACK_BYTES", phimi.models._STACK_BYTES * 30 // full)
    loop = [estimate(ObjectiveContext(div, gaussian_model(), s), seed=e)
            for s, e in zip(samples, seeds)]
    calib_seq, mc_seq = np.random.SeedSequence(cfg.seed).spawn(2)
    crits = _phi_critical_values(cfg, calib_seq)
    fits, fallbacks = [], []

    def recorded(*args):
        fits.extend(estimate_samples(*args))
        return fits

    lbfgsb = phimi.estimator._lbfgsb

    def counted(ctx, seed, evals):
        fallbacks.append(seed.spawn_key)
        return lbfgsb(ctx, seed, evals)

    with monkeypatch.context() as patch:
        patch.setattr(phimi.power_study, "estimate_samples", recorded)
        patch.setattr(phimi.estimator, "_lbfgsb", counted)
        rejected, reps = phimi.power_study._fitted_rejections(
            cfg, cfg.grid[0], mc_seq.spawn(1)[0].spawn(cfg.reps), crits)
    assert ([(f.method, f.converged, f.objective_evals) for f in fits]
            == [(e.method, e.converged, e.objective_evals) for e in loop])
    # a row goes to its own fit exactly where that fit leaves Newton
    assert fallbacks == [e.spawn_key for e, f in zip(seeds, loop) if f.method == "lbfgsb"]
    got = np.array([2.0 * cfg.n * f.i_hat for f in fits])
    want = np.array([2.0 * cfg.n * e.i_hat for e in loop])
    assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))
    # the study rejects where the replicate's own statistic passes its critical value
    assert (rejected[test], reps) == (int(np.count_nonzero(want > crits[test])), cfg.reps)
    return fits


class TestStackedStudyFits:
    """A Gaussian study fits each phi test's replicates in stacks; a loop of
    ``estimate`` on each replicate's own context is the oracle."""

    @pytest.mark.parametrize("test", ["kl", "chisq"])   # ztz and bootstrap routes
    @pytest.mark.parametrize("rho", [0.0, 0.5, 0.9])
    @pytest.mark.parametrize("n", [40, 300])
    def test_matches_replicate_fits(self, monkeypatch, n, rho, test):
        cfg = gaussian_cfg(n, rho, test)
        ctx = ObjectiveContext(DivergenceSpec(1.0), gaussian_model(), replicate_streams(cfg)[0][0])
        # n = 40 takes the dense block, n = 300 the series
        assert ctx._cache["lowrank"] == (n == 300)
        check_study_fits(monkeypatch, cfg)

    def test_fallback_rows_take_the_replicate_fit(self, monkeypatch):
        # with three profiled passes, many fits stop Newton at the cap
        monkeypatch.setattr(phimi.estimator, "_NEWTON_PASSES", 3)
        fits = check_study_fits(monkeypatch, gaussian_cfg(40, 0.5, "kl"))
        assert sum(f.method == "lbfgsb" for f in fits) >= 10


def reference_study(cfg):
    """The table of replicate-by-replicate fitting: one ``estimate`` per
    replicate and phi test, a baseline on a stack of one, a replicate
    dropped at its first PhimiError or baseline refusal."""
    calib_seq, mc_seq = np.random.SeedSequence(cfg.seed).spawn(2)
    crits = _phi_critical_values(cfg, calib_seq)
    rows = []
    for param, gseq in zip(cfg.grid, mc_seq.spawn(len(cfg.grid))):
        counts, failures = dict.fromkeys(cfg.tests, 0), 0
        for seq in gseq.spawn(cfg.reps):
            s_sample, s_est = seq.spawn(2)
            sample = sample_gaussian(GaussianSpec(param, cfg.sigma), cfg.n, s_sample)
            try:
                rejects = {}
                for t in cfg.tests:
                    if t == "kl":
                        ctx = ObjectiveContext(DivergenceSpec(1.0), gaussian_model(), sample)
                        stat = 2.0 * cfg.n * phimi.estimator.estimate(ctx, seed=s_est).i_hat
                        rejects[t] = stat > crits[t]
                    else:
                        rejects[t], = phimi.power_study._BASELINES[t](
                            sample.x[None], sample.y[None], cfg.alpha)
                        if rejects[t] is None:
                            raise DegenerateInputError("refused")
            except PhimiError:
                failures += 1
                continue
            for t in cfg.tests:
                counts[t] += rejects[t]
        if failures > 0.02 * cfg.reps:
            raise PhimiError(f"{failures}/{cfg.reps} replicates failed at parameter {param}")
        rows += [(t, param, counts[t], cfg.reps - failures) for t in cfg.tests]
    return sorted(rows)


class TestDroppedReplicates:
    """A replicate is dropped whole when any of its tests raises PhimiError:
    its fit (here its L-BFGS-B run raising on chosen replicates) or a baseline
    (refusing the sample); more than 2% dropped fails the study."""

    @staticmethod
    def failing(monkeypatch, cfg, fits, baselines):
        """Make the fits of the replicates ``fits`` raise, and the kendall
        test refuse the samples of ``baselines``, (grid index, replicate)
        pairs."""
        # one profiled pass: every row leaves Newton, so each replicate's
        # fit runs L-BFGS-B, as it does replicate by replicate
        monkeypatch.setattr(phimi.estimator, "_NEWTON_PASSES", 1)
        real_lbfgsb, real_kendall = phimi.estimator._lbfgsb, phimi.power_study._BASELINES["kendall"]

        def lbfgsb_or_fail(ctx, seed, evals):
            if getattr(seed, "spawn_key", ())[1:3] in fits:
                raise OptimFailureError("forced")
            return real_lbfgsb(ctx, seed, evals)

        degenerate = {replicate_streams(cfg, g)[0][r].x[0] for g, r in baselines}

        def kendall_or_fail(x, y, alpha):
            return [None if row[0] in degenerate else reject
                    for row, reject in zip(x, real_kendall(x, y, alpha))]

        monkeypatch.setattr(phimi.estimator, "_lbfgsb", lbfgsb_or_fail)
        monkeypatch.setitem(phimi.power_study._BASELINES, "kendall", kendall_or_fail)

    def test_counts_match_replicate_loop(self, monkeypatch):
        cfg = gaussian_cfg(40, 0.5, "kl", grid=(0.0, 0.5), tests=("kl", "kendall"))
        # grid point 0 loses replicate 3 (both tests fail), grid point 1
        # replicates 7 (fit) and 20 (baseline)
        self.failing(monkeypatch, cfg, fits={(0, 3), (1, 7)}, baselines={(0, 3), (1, 20)})
        table = run_power_study(cfg)
        assert sorted((r.test, r.param, r.rejections, r.reps) for r in table.rows) \
            == reference_study(cfg)
        assert {r.param: r.reps for r in table.rows} == {0.0: 99, 0.5: 98}

    def test_more_than_two_percent_fails(self, monkeypatch):
        cfg = gaussian_cfg(40, 0.5, "kl", tests=("kl", "kendall"))
        self.failing(monkeypatch, cfg, fits={(0, 1), (0, 2)}, baselines={(0, 3)})
        message = "3/100 replicates failed at parameter 0.5"
        with pytest.raises(PhimiError, match=message):
            reference_study(cfg)
        with pytest.raises(PhimiError, match=message):
            run_power_study(cfg)


class TestEmitParse:
    def sample_table(self):
        rows = (
            PowerRow("kl", 0.0, 123, 10000, 30, 0.01),
            PowerRow("kl", 0.28, 1681, 10000, 30, 0.01),
            PowerRow("chisq", 0.0, 102, 10000, 30, 0.01),
        )
        return PowerTable(rows)

    def test_round_trip(self):
        table = self.sample_table()
        assert parse_results(emit_results(table)) == table

    def test_round_trip_awkward_reps(self):
        table = PowerTable((PowerRow("kl", 0.5, 1000, 3000, 50, 0.05),))
        assert parse_results(emit_results(table)) == table

    def test_header_and_formatting(self):
        text = emit_results(self.sample_table())
        lines = text.splitlines()
        assert lines[0] == "phimi-format=1"
        assert lines[1].startswith("test,param,power,se")
        assert "kl,0.0,0.0123,0.0011,123,10000,30,0.01" in lines

    def test_empty_table_is_header_only(self):
        text = emit_results(PowerTable(()))
        assert text.splitlines() == [
            "phimi-format=1",
            "test,param,power,se,rejections,reps,n,alpha",
        ]

    def test_text_format(self):
        text = emit_results(self.sample_table(), fmt="text")
        assert text.startswith("phimi-format=1\n")
        assert "0.0123" in text

    def test_parse_rejects_bad_header(self):
        with pytest.raises(ParseError):
            parse_results("nonsense\n")
        with pytest.raises(ParseError):
            parse_results("phimi-format=1\nwrong,columns\n")

    def test_parse_reports_bad_line(self):
        text = emit_results(self.sample_table()) + "kl,oops,0,0,1,2,3\n"
        with pytest.raises(ParseError):
            parse_results(text)

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            emit_results(self.sample_table(), fmt="yaml")


def test_power_row_statistics():
    row = PowerRow("kl", 0.5, 250, 1000, 50, 0.05)
    assert row.power == 0.25
    assert row.se == pytest.approx(np.sqrt(0.25 * 0.75 / 1000))
