import numpy as np
import pytest

from phimi import (
    DivergenceSpec,
    FiniteMixtureSpec,
    ParseError,
    PowerRow,
    PowerStudyConfig,
    PowerTable,
    chi2_quantile,
    emit_results,
    parse_results,
    plugin_estimate,
    run_power_study,
    sample_finite,
)
from phimi.errors import RouteMismatchError


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

    def test_ztz_route_needs_gaussian_kl(self):
        with pytest.raises(RouteMismatchError):
            PowerStudyConfig(family="gaussian", grid=(0.0,), n=50, reps=100,
                             alpha=0.05, tests=("chisq",), seed=1,
                             calibration={"chisq": "ztz"})

    def test_minimum_replicates(self):
        with pytest.raises(ValueError):
            small_finite_cfg(reps=50)

    def test_empty_grid(self):
        with pytest.raises(ValueError):
            small_finite_cfg(grid=())


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
                               seed=3, moment_draws=50_000, ztz_draws=4000)
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

    def test_threaded_run_matches_serial(self):
        # threads apply to fitted families; here KL on the ztz route
        cfg = dict(family="gaussian", grid=(0.0, 0.5), n=40, reps=100, alpha=0.05,
                   tests=("kl",), seed=6, moment_draws=20_000, ztz_draws=2000)
        serial = run_power_study(PowerStudyConfig(**cfg, threads=1))
        threaded = run_power_study(PowerStudyConfig(**cfg, threads=2))
        assert serial.power("kl")[0.5] > serial.power("kl")[0.0]
        assert serial == threaded


def reference_plugin(divergence, sample, levels):
    """The per-table plug-in, built as a dict encoding and a scattered table."""
    tables = [{tok: i for i, tok in enumerate(side.tolist())} for side in levels]
    ix = [tables[0][tok] for tok in sample.x.tolist()]
    iy = [tables[1][tok] for tok in sample.y.tolist()]
    counts = np.zeros((len(tables[0]), len(tables[1])))
    np.add.at(counts, (ix, iy), 1.0)
    p = counts / sample.n
    q = np.outer(p.sum(axis=1), p.sum(axis=0))
    mask = q > 0.0
    return float(divergence.phi(p[mask] / q[mask]) @ q[mask])


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
                batch = plugin_estimate(div, samples, spec.levels)
                assert batch.shape == (300,)
                ref = [reference_plugin(div, s, spec.levels) for s in samples]
                np.testing.assert_allclose(batch, ref, rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("k, seed", [(2, 5), (3, 8)])
    def test_study_matches_replicate_loop(self, k, seed):
        cfg = small_finite_cfg(k=k, seed=seed, n=20, grid=(0.0, 0.3, 0.6))
        table = run_power_study(cfg)
        calib_seq, mc_seq = np.random.SeedSequence(cfg.seed).spawn(2)
        crit = chi2_quantile(1.0 - cfg.alpha, (k - 1) ** 2)
        for param, gseq in zip(cfg.grid, mc_seq.spawn(len(cfg.grid))):
            spec = FiniteMixtureSpec(k, param)
            samples = [sample_finite(spec, cfg.n, seq.spawn(2)[0])
                       for seq in gseq.spawn(cfg.reps)]
            for test, gamma in (("kl", 1.0), ("chisq", 2.0)):
                expected = sum(
                    2.0 * cfg.n * plugin_estimate(DivergenceSpec(gamma), s, spec.levels)
                    > crit for s in samples)
                row, = (r for r in table.rows if r.test == test and r.param == param)
                assert (row.rejections, row.reps) == (expected, cfg.reps)


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
