import numpy as np
import pytest

from phimi import (
    CvConfig,
    DivergenceSpec,
    ExpBilinearModel,
    FgmCopulaModel,
    GaussianSpec,
    OptimFailureError,
    PairedSample,
    cross_validate,
    gaussian_model,
    sample_gaussian,
)

KL = DivergenceSpec(1.0)


class TestCrossValidate:
    def test_single_candidate_selected(self):
        s = sample_gaussian(GaussianSpec(0.4), 60, 1)
        cfg = CvConfig([ExpBilinearModel(["xy"])], KL, k=3, seed=0)
        report = cross_validate(s, cfg)
        assert report.selected == 0
        assert report.fold_scores.shape == (1, 3)
        assert np.isfinite(report.scores[0])

    def test_deterministic_given_seed(self):
        s = sample_gaussian(GaussianSpec(0.5), 80, 2)
        cfg = CvConfig([ExpBilinearModel(["xy"]), gaussian_model()], KL, k=4, seed=7)
        r1 = cross_validate(s, cfg)
        r2 = cross_validate(s, cfg)
        assert np.array_equal(r1.fold_scores, r2.fold_scores)
        assert r1.selected == r2.selected

    def test_true_model_beats_noise_basis(self):
        # data carry an xy signal; the (x, y) basis has exactly zero score
        # signal, so the informative candidate should win almost always
        wins = 0
        runs = 100
        candidates = [gaussian_model(), ExpBilinearModel(["x", "y"])]
        for r in range(runs):
            s = sample_gaussian(GaussianSpec(0.6), 500, 1000 + r)
            report = cross_validate(s, CvConfig(candidates, KL, k=5, seed=r))
            wins += report.selected == 0
        assert wins >= 90

    def test_leave_one_out_well_defined(self):
        s = sample_gaussian(GaussianSpec(0.3), 8, 3)
        cfg = CvConfig([ExpBilinearModel(["xy"])], KL, k=8, seed=1)
        report = cross_validate(s, cfg)
        assert report.fold_scores.shape == (1, 8)
        assert np.all(np.isfinite(report.fold_scores))

    def test_every_candidate_disqualified_raises(self):
        # leave-one-out: a 1-pair held-out fold has no FGM rank transform
        s = sample_gaussian(GaussianSpec(0.4), 12, 1)
        cfg = CvConfig([FgmCopulaModel(), FgmCopulaModel()], KL, k=12, seed=0)
        with pytest.raises(OptimFailureError, match=r"\[0, 1\]"):
            cross_validate(s, cfg)

    def test_disqualified_candidate_loses(self):
        s = sample_gaussian(GaussianSpec(0.4), 12, 1)
        cfg = CvConfig([FgmCopulaModel(), ExpBilinearModel(["xy"])], KL, k=12, seed=0)
        report = cross_validate(s, cfg)
        assert report.disqualified == (0,)
        assert report.scores[0] == -np.inf and np.isfinite(report.scores[1])
        assert report.selected == 1

    def test_identical_candidates_tie_to_first(self):
        s = sample_gaussian(GaussianSpec(0.4), 40, 4)
        cfg = CvConfig([ExpBilinearModel(["xy"]), ExpBilinearModel(["xy"])],
                       KL, k=4, seed=2)
        report = cross_validate(s, cfg)
        assert report.scores[0] == report.scores[1]
        assert report.selected == 0

    def test_needs_enough_data(self):
        s = sample_gaussian(GaussianSpec(0.0), 8, 5)
        with pytest.raises(ValueError):
            cross_validate(s, CvConfig([ExpBilinearModel(["xy"])], KL, k=5, seed=0))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CvConfig([], KL, k=3)
        with pytest.raises(ValueError):
            CvConfig([ExpBilinearModel(["xy"])], KL, k=1)

    def test_fold_estimates_recorded(self):
        s = sample_gaussian(GaussianSpec(0.2), 30, 6)
        report = cross_validate(s, CvConfig([ExpBilinearModel(["xy"])], KL, k=3, seed=3))
        assert len(report.fold_estimates) == 1
        assert len(report.fold_estimates[0]) == 3
        assert all(e.converged for e in report.fold_estimates[0])


class TestFoldIndices:
    @pytest.mark.parametrize("n,k", [(20, 5), (23, 4), (8, 8), (101, 7)])
    def test_exact_partition(self, n, k):
        from phimi.selection import fold_indices

        folds = fold_indices(n, k, seed=13)
        sizes = [f.size for f in folds]
        assert max(sizes) - min(sizes) <= 1
        merged = np.concatenate(folds)
        assert np.array_equal(np.sort(merged), np.arange(n))

    def test_seeded_shuffle_not_contiguous(self):
        from phimi.selection import fold_indices

        folds = fold_indices(100, 5, seed=3)
        assert not np.array_equal(folds[0], np.arange(20))
        again = fold_indices(100, 5, seed=3)
        assert all(np.array_equal(a, b) for a, b in zip(folds, again))


def test_uneven_fold_sizes_handled():
    # n = 23, k = 4: folds of size 6, 6, 6, 5
    s = sample_gaussian(GaussianSpec(0.3), 23, 9)
    report = cross_validate(s, CvConfig([ExpBilinearModel(["xy"])], KL, k=4, seed=11))
    assert np.all(np.isfinite(report.fold_scores))


def test_fgm_candidate_on_copula_data():
    from phimi import FgmCopulaModel, FgmSpec, sample_fgm

    s = sample_fgm(FgmSpec(0.9), 100, 21)
    cfg = CvConfig([FgmCopulaModel(), ExpBilinearModel(["x", "y"])], KL, k=5, seed=4)
    report = cross_validate(s, cfg)
    assert report.selected == 0
