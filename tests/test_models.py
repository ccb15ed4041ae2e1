import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.stats import multivariate_normal, norm, rankdata

from phimi import (
    BoundsError,
    DivergenceSpec,
    ExpBilinearModel,
    FgmCopulaModel,
    FiniteDiscreteModel,
    LengthMismatchError,
    ObjectiveContext,
    PairedSample,
    ParamVector,
    SupportError,
    gaussian_model,
    gaussian_ratio_coefficients,
    h_eval,
    h_grad,
    model_from_config,
    model_to_config,
    rank_transform,
)
import phimi.models
from phimi.models import BasisPair, encode_tokens

MODELS = {
    "expbilinear": lambda: ExpBilinearModel(["x", "y", "xy"]),
    "gaussian": gaussian_model,
    "finite": lambda: FiniteDiscreteModel(["a", "b"], ["c", "d", "e"]),
    "fgm": FgmCopulaModel,
}


def random_points(model, rng, size):
    if isinstance(model, FiniteDiscreteModel):
        x = rng.choice(np.asarray(model.levels_x, dtype=object), size)
        y = rng.choice(np.asarray(model.levels_y, dtype=object), size)
    elif isinstance(model, FgmCopulaModel):
        x, y = rng.random(size), rng.random(size)
    else:
        x, y = rng.standard_normal(size), rng.standard_normal(size)
    return x, y


class TestParamVector:
    def test_round_trip_with_alpha(self):
        pv = ParamVector(0.5, (1.0, -2.0))
        arr = pv.to_array()
        assert arr.tolist() == [0.5, 1.0, -2.0]
        assert ParamVector.from_array(arr, has_alpha=True) == pv
        back = ParamVector.from_array(np.float32([0.1, 0.2]), has_alpha=True)
        assert type(back.alpha) is float and [type(v) for v in back.beta] == [float]
        assert back.beta == (float(np.float32(0.2)),)

    def test_round_trip_without_alpha(self):
        pv = ParamVector(None, (0.3,))
        assert pv.to_array().tolist() == [0.3]
        assert ParamVector.from_array([0.3], has_alpha=False) == pv
        assert len(pv) == 1


class TestHEval:
    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_h_is_one_at_theta0(self, name):
        model = MODELS[name]()
        rng = np.random.default_rng(0)
        x, y = random_points(model, rng, 100)
        vals = np.atleast_1d(model.h(model.theta0, x, y))
        assert np.allclose(vals, 1.0, atol=1e-14)

    def test_fgm_at_corner(self):
        model = FgmCopulaModel(theta_bounds=(-1.0, 1.0))
        assert h_eval(model, [1.0], 0.0, 0.0) == pytest.approx(2.0)

    def test_finite_exponent_cell(self):
        model = FiniteDiscreteModel([1, 2], [1, 2])
        theta = np.zeros(4)
        theta[3] = np.log(2.0)  # beta for cell (a2, b2)
        assert model.h(theta, 2, 2) == pytest.approx(2.0)
        assert model.h(theta, 1, 1) == pytest.approx(1.0)

    def test_positivity(self):
        rng = np.random.default_rng(1)
        for name in MODELS:
            model = MODELS[name]()
            x, y = random_points(model, rng, 50)
            theta = rng.uniform(model.bounds[:, 0] * 0.05, model.bounds[:, 1] * 0.05)
            assert np.all(np.atleast_1d(model.h(theta, x, y)) > 0.0)

    def test_bounds_error(self):
        model = ExpBilinearModel(["xy"])
        with pytest.raises(BoundsError):
            model.h([0.0, 11.0], 0.0, 0.0)
        with pytest.raises(BoundsError):
            model.h([0.0], 0.0, 0.0)  # wrong length

    def test_support_error(self):
        model = FiniteDiscreteModel(["a", "b"], ["c", "d"])
        with pytest.raises(SupportError):
            model.h(model.theta0, "z", "c")
        fgm = FgmCopulaModel()
        for u in (1.5, np.nan):   # a NaN margin is not in [0, 1] either
            with pytest.raises(SupportError):
                fgm.h([0.1], u, 0.5)


class TestHGrad:
    def test_exp_at_theta0_equals_features(self):
        model = ExpBilinearModel(["x", "y", "xy"])
        g = h_grad(model, model.theta0, 2.0, 3.0)
        assert np.allclose(g, [1.0, 2.0, 3.0, 6.0])

    def test_fgm_example(self):
        model = FgmCopulaModel()
        g = h_grad(model, [0.0], 0.25, 0.25)
        assert np.allclose(g, [0.25])

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_matches_finite_differences(self, name):
        model = MODELS[name]()
        rng = np.random.default_rng(42)
        h_step = 1e-5
        for _ in range(20):
            x, y = random_points(model, rng, 1)
            lo = np.maximum(model.bounds[:, 0], -0.9)
            hi = np.minimum(model.bounds[:, 1], 0.9)
            theta = rng.uniform(lo, hi)
            grad = np.atleast_1d(np.squeeze(model.h_grad(theta, x, y)))
            fd = np.empty_like(grad)
            for k in range(model.dim):
                dt = np.zeros(model.dim)
                dt[k] = h_step
                fd[k] = (model.h(theta + dt, x, y)[0] - model.h(theta - dt, x, y)[0]) / (2 * h_step)
            assert np.allclose(grad, fd, rtol=1e-5, atol=1e-7)


class TestRankTransform:
    def test_basic_ranks(self):
        x, y = [3.0, 1.0, 2.0], [1.0, 2.0, 3.0]
        m = rank_transform(x, y)
        assert np.array_equal(m.u, [0.75, 0.25, 0.50])
        assert np.array_equal(m.v, [0.25, 0.50, 0.75])
        assert np.array_equal(m.u, rankdata(x, "average") / 4)
        assert np.array_equal(m.v, rankdata(y, "average") / 4)

    def test_mid_ranks_for_ties(self):
        x, y = [1.0, 1.0], [1.0, 2.0]
        m = rank_transform(x, y)
        assert np.array_equal(m.u, [0.5, 0.5])
        assert np.array_equal(m.u, rankdata(x, "average") / 3)

    def test_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(3)
        m = rank_transform(rng.standard_normal(200), rng.standard_normal(200))
        assert np.all((m.u > 0) & (m.u < 1))
        assert np.all((m.v > 0) & (m.v < 1))

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            rank_transform([1.0, 2.0], [1.0])

    @given(st.lists(st.floats(-50, 50), min_size=3, max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_invariant_under_increasing_transform(self, xs):
        xs = np.asarray(xs)
        # exp must not merge values that were distinct (float resolution)
        assume(np.unique(np.exp(xs / 25.0)).size == np.unique(xs).size)
        ys = np.arange(xs.size, dtype=float)
        before = rank_transform(xs, ys)
        after = rank_transform(np.exp(xs / 25.0), ys)
        assert np.array_equal(before.u, after.u)
        assert np.array_equal(before.u, rankdata(xs, "average") / (xs.size + 1))


def test_stacked_mid_ranks_are_rankdata_bit_for_bit():
    # continuous and tied stacks: 1 to 30 rows of 2 to 800 values, every
    # row against scipy's average ranks
    rng = np.random.default_rng(29)
    for case in range(120):
        r, n = int(rng.integers(1, 31)), int(rng.integers(2, 801))
        t = rng.standard_normal((r, n))
        if case % 3 == 1:
            t = np.round(t, int(rng.integers(0, 3)))   # ties from rounding
        elif case % 3 == 2:
            t = rng.integers(0, int(rng.integers(1, 5)), (r, n)).astype(float)   # few values
        got = phimi.models._mid_ranks(t)
        assert got.dtype == np.float64 and got.shape == (r, n)
        assert np.array_equal(got, rankdata(t, "average", axis=1)), (r, n)


class TestGaussianModel:
    def test_theta0_gives_one(self):
        model = gaussian_model()
        assert model.h(model.theta0, 0.7, -1.2) == pytest.approx(1.0)

    def test_matches_density_ratio(self):
        rho, sigma = 0.6, 1.3
        model = gaussian_model()
        theta = gaussian_ratio_coefficients(rho, sigma).to_array()
        cov = sigma**2 * np.array([[1.0, rho], [rho, 1.0]])
        joint = multivariate_normal(mean=[0.0, 0.0], cov=cov)
        rng = np.random.default_rng(7)
        for _ in range(10):
            x, y = rng.uniform(-2.0, 2.0, 2)
            direct = joint.pdf([x, y]) / (
                norm.pdf(x, scale=sigma) * norm.pdf(y, scale=sigma))
            assert model.h(theta, x, y) == pytest.approx(direct, rel=1e-10)

    def test_zero_correlation_gives_zero_coefficients(self):
        pv = gaussian_ratio_coefficients(0.0)
        assert pv.alpha == 0.0
        assert pv.beta == (0.0, 0.0, 0.0)


class TestIdentifiability:
    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_distinct_theta_distinct_h(self, name):
        model = MODELS[name]()
        rng = np.random.default_rng(11)
        x, y = random_points(model, rng, 200)
        lo = np.maximum(model.bounds[:, 0], -1.0)
        hi = np.minimum(model.bounds[:, 1], 1.0)
        thetas = [rng.uniform(lo, hi) for _ in range(6)]
        evals = [np.atleast_1d(model.h(t, x, y)) for t in thetas]
        for i in range(len(thetas)):
            for j in range(i + 1, len(thetas)):
                assert np.max(np.abs(evals[i] - evals[j])) > 1e-8


class TestSerialization:
    def test_expbilinear_round_trip(self):
        model = ExpBilinearModel(["x2", "y2", "xy"], beta_bounds=(-5.0, 5.0))
        text = model_to_config(model)
        back = model_from_config(text)
        assert isinstance(back, ExpBilinearModel)
        assert [p.name for p in back.basis] == ["x2", "y2", "xy"]
        assert np.allclose(back.bounds, model.bounds)

    def test_finite_round_trip(self):
        model = FiniteDiscreteModel(["a", "b", "c"], ["u", "v"])
        back = model_from_config(model_to_config(model))
        assert back.levels_x == ("a", "b", "c")
        assert back.levels_y == ("u", "v")
        assert back.dim == model.dim

    def test_fgm_round_trip(self):
        back = model_from_config(model_to_config(FgmCopulaModel()))
        assert isinstance(back, FgmCopulaModel)
        assert np.allclose(back.bounds, [[-0.999, 0.999]])

    def test_custom_basis_not_serializable(self):
        pair = BasisPair("sinx", lambda x: np.sin(x), lambda y: np.ones_like(y))
        model = ExpBilinearModel([pair])
        with pytest.raises(ValueError):
            model_to_config(model)

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            model_from_config("family=weird")

    def test_finite_integer_levels_keep_their_type(self):
        model = FiniteDiscreteModel([0, 1], [0, 1])
        back = model_from_config(model_to_config(model))
        assert back.levels_x == (0, 1) and back.levels_y == (0, 1)
        assert all(type(t) is int for t in back.levels_x + back.levels_y)
        theta = np.linspace(-0.5, 0.5, model.dim)
        x, y = np.array([0, 1, 1, 0]), np.array([1, 1, 0, 0])
        assert np.array_equal(back.h(theta, x, y), model.h(theta, x, y))

    def test_finite_levels_with_separators(self):
        levels = ["a,b", "c:d", " e ", "100%", "x\ny", "s:t", "#", "=", ""]
        model = FiniteDiscreteModel(levels, [1.5, -0.0, float("inf")])
        back = model_from_config(model_to_config(model))
        assert back.levels_x == tuple(levels)
        assert back.levels_y == (1.5, 0.0, float("inf"))
        assert np.array_equal(back.bounds, model.bounds)

    def test_finite_bool_levels_keep_their_type(self):
        for levels in ([False, True], [np.bool_(False), np.bool_(True)]):
            text = model_to_config(FiniteDiscreteModel(levels, [0, 1]))
            assert "levels_x=b:0,b:1" in text
            back = model_from_config(text)
            assert back.levels_x == (False, True)
            assert all(type(t) is bool for t in back.levels_x)
        with pytest.raises(ValueError, match="b:0 or b:1"):
            model_from_config("family=finite\nlevels_x=b:0,b:2\nlevels_y=i:0,i:1")

    def test_untyped_levels_read_as_strings(self):
        back = model_from_config("family=finite\nlevels_x=a,b\nlevels_y=1,2")
        assert back.levels_x == ("a", "b") and back.levels_y == ("1", "2")

    def test_unserializable_level(self):
        with pytest.raises(ValueError):
            model_to_config(FiniteDiscreteModel([b"a", b"b"], [0, 1]))


_LEVELS = st.one_of(
    st.lists(st.integers(), min_size=2, max_size=4, unique=True),
    st.lists(st.floats(allow_nan=False), min_size=2, max_size=4, unique=True),
    st.lists(st.text(), min_size=2, max_size=4, unique=True),
    st.permutations([False, True]),
)


@settings(max_examples=150, deadline=None)
@given(lx=_LEVELS, ly=_LEVELS, lo=st.floats(-40.0, -0.01), hi=st.floats(0.01, 40.0),
       data=st.data())
def test_finite_config_round_trip_property(lx, ly, lo, hi, data):
    model = FiniteDiscreteModel(lx, ly, alpha_bounds=(lo, hi), beta_bounds=(2 * lo, hi))
    back = model_from_config(model_to_config(model))
    assert back.levels_x == model.levels_x and back.levels_y == model.levels_y
    assert [type(t) for t in back.levels_x + back.levels_y] == \
        [type(t) for t in model.levels_x + model.levels_y]
    assert np.array_equal(back.bounds, model.bounds)
    pick = st.lists(st.integers(0, 3), min_size=1, max_size=12)
    x = [lx[i % len(lx)] for i in data.draw(pick)]
    y = [ly[i % len(ly)] for i in data.draw(pick)][:len(x)]
    x = x[:len(y)]
    b = model.bounds
    theta = b[:, 0] + (b[:, 1] - b[:, 0]) * np.linspace(0.2, 0.8, model.dim)
    assert np.array_equal(back.h(theta, x, y), model.h(theta, x, y))


class TestEncodeTokens:
    def test_string_tokens(self):
        codes = encode_tokens(np.array([["b", "a"], ["c", "a"]]), np.array(["a", "b", "c"]))
        assert codes.tolist() == [[1, 0], [2, 0]]

    def test_integer_tokens(self):
        codes = encode_tokens(np.array([3, 1, 2, 3, 1]), np.arange(1, 4), "x")
        assert codes.tolist() == [2, 0, 1, 2, 0]
        assert codes.dtype.kind == "i"

    def test_unsorted_levels(self):
        levels = np.array(["c", "a", "b"], dtype=object)
        assert encode_tokens(np.array(["a", "b", "c"]), levels).tolist() == [1, 2, 0]
        model = FiniteDiscreteModel([20, 10, 30], ["z", "y"])
        assert model.encode_x([10, 30, 20]).tolist() == [1, 2, 0]
        assert model.encode_y(["y", "z"]).tolist() == [1, 0]

    def test_model_levels_keep_every_value(self):
        # a native array would drop the NUL and merge the two large ints
        model = FiniteDiscreteModel(["a\x00", "a"], [2**63, 2**63 + 1])
        assert model.encode_x(["a", "a\x00"]).tolist() == [1, 0]
        assert model.encode_y([2**63 + 1, 2**63]).tolist() == [1, 0]

    def test_matches_dict_encoding(self):
        rng = np.random.default_rng(4)
        levels = rng.permutation(np.arange(-5, 40, 3))
        tokens = rng.choice(levels, size=(7, 30))
        table = {tok: i for i, tok in enumerate(levels.tolist())}
        expected = [[table[t] for t in row] for row in tokens.tolist()]
        assert encode_tokens(tokens, levels).tolist() == expected

    def test_unknown_token(self):
        with pytest.raises(SupportError, match="unknown y level 7"):
            encode_tokens(np.array([1, 2, 7, 9]), np.array([2, 1]), "y")
        with pytest.raises(SupportError, match="unknown x level 'zz'"):
            encode_tokens(np.array(["a", "zz"]), np.array(["a", "b"]), "x")
        with pytest.raises(SupportError):   # beyond the largest level
            encode_tokens(np.array(["c"]), np.array(["a", "b"]))
        with pytest.raises(SupportError):
            encode_tokens(np.array([1]), np.array([], dtype=int))

    def test_mixed_type_token(self):
        levels = np.array(["a", "b"], dtype=object)
        with pytest.raises(SupportError):
            encode_tokens(np.array(["a", 1], dtype=object), levels)
        with pytest.raises(SupportError):
            FiniteDiscreteModel(["a", "b"], ["c", "d"]).h(np.zeros(4), 1, "c")

    @pytest.mark.parametrize("levels", [["a", 1], ["a", None], [1, (2, 3)]])
    def test_model_levels_must_compare(self, levels):
        # the model encodes by a sorted search: levels of one margin must be
        # mutually comparable (all strings, or all numbers)
        with pytest.raises(ValueError, match="mutually comparable"):
            FiniteDiscreteModel(levels, ["c", "d"])
        with pytest.raises(ValueError, match="mutually comparable"):
            FiniteDiscreteModel(["c", "d"], levels)


def _padding_samples():
    """Rows of one stack with different distinct counts: continuous, tied,
    two distinct x values, and an outlier x = 1e3 that only row 3 holds."""
    rng = np.random.default_rng(8)
    n = 60
    rows = []
    for r in range(5):
        x = rng.standard_normal(n)
        y = 0.5 * x + np.sqrt(0.75) * rng.standard_normal(n)
        if r == 1:
            x, y = np.round(x, 1), np.round(y, 1)
        if r == 2:
            x = np.sign(x)
        if r == 3:
            x[5] = 1e3
        rows.append(PairedSample(x, y))
    return rows


PADDING_SAMPLES = _padding_samples()
PADDING_BASES = {
    "x2,y2,xy": ["x2", "y2", "xy"],   # the exact kernel: every block is small
    "xy,x2y2": [BasisPair("xy", lambda t: t, lambda t: t),   # two coupled terms: dense
                BasisPair("x2y2", lambda t: t**2, lambda t: t**2)],
}


def _mixed_samples():
    """Rows of one stack, n = 200, that take each route of one coupled
    term: the series (continuous), the exact kernel (rounded), the kernel
    after the series' rounding guard declines (positive values, c < 0 on
    its row), and the dense block (x = 1e3 with beta_x = -0.71 on its row,
    past the bound on |s|); with the theta of each row."""
    rng = np.random.default_rng(9)
    n = 200
    x = rng.standard_normal(n)
    y = 0.5 * x + np.sqrt(0.75) * rng.standard_normal(n)
    outlier = x.copy()
    outlier[5] = 1e3
    samples = [PairedSample(x, y), PairedSample(np.round(x, 1), np.round(y, 1)),
               PairedSample(rng.uniform(1.0, 2.5, n), rng.uniform(1.0, 2.5, n)),
               PairedSample(outlier, y)]
    theta = np.array([[0.1, 0.2, -0.1, 0.4], [0.1, -0.2, 0.1, 0.3], [0.0, 0.0, 0.0, -4.0],
                      [0.0, -0.71, 0.1, 1e-4]])
    return samples, theta


MIXED_SAMPLES, MIXED_THETA = _mixed_samples()
MIXED_ROUTES = ["series", "kernel", "kernel", "dense"]


def row0(hook, div, theta, cache, *args):
    """A model hook at a 1-D ``theta`` (beta for ``_profile``) on the cache
    of one sample, a stack of one: row 0 of the hook at ``theta[None]``."""
    return tuple(None if q is None else q[0] for q in hook(div, theta[None], cache, *args))


def route_rows(monkeypatch):
    """Rows, from here on, whose cross sums each route answered."""
    rows = {"series": 0, "kernel": 0, "dense": 0}
    series, kernel = phimi.models._series_sums, phimi.models._kernel_sums
    dense = ExpBilinearModel._cross_exponent

    def series_spy(*args):
        out = series(*args)
        rows["series"] += int(np.sum(~np.isnan(out[..., 0])))
        return out

    def kernel_spy(cache, r, *args):
        rows["kernel"] += np.size(r)
        return kernel(cache, r, *args)

    def dense_spy(self, theta, cache):
        rows["dense"] += len(np.atleast_2d(theta))
        return dense(self, theta, cache)

    monkeypatch.setattr(phimi.models, "_series_sums", series_spy)
    monkeypatch.setattr(phimi.models, "_kernel_sums", kernel_spy)
    monkeypatch.setattr(ExpBilinearModel, "_cross_exponent", dense_spy)
    return rows


class TestStackPadding:
    """A stack pads each row's distinct values and pairs to the widest row
    with entries the row drew; on every row the terms, the cross sums and
    the profile equal those of the row's own context."""

    def contexts(self, basis, gamma):
        div, model = DivergenceSpec(gamma), ExpBilinearModel(PADDING_BASES[basis])
        stack = ObjectiveContext(div, model, PADDING_SAMPLES)
        singles = [ObjectiveContext(div, model, s) for s in PADDING_SAMPLES]
        rng = np.random.default_rng(3)
        theta = np.column_stack([np.full(len(singles), 0.1),
                                 rng.uniform(-0.3, 0.3, (len(singles), model.dim - 1))])
        theta[3, 1:] *= 1e-5   # keeps h finite at the outlier
        return model, stack, singles, theta

    @staticmethod
    def check(got, want):
        for g, w in zip(got, want):
            if w is not None:
                np.testing.assert_allclose(g, w, rtol=0.0, atol=1e-12 * np.abs(w).max())

    def test_rows_keep_their_own_values(self):
        model, stack, singles, _ = self.contexts("x2,y2,xy", 1.0)
        cache = stack._cache
        counts = cache["xim"][..., 0]   # the x value counts
        widths = [np.unique(s.x).size for s in PADDING_SAMPLES]
        assert stack.resamples == 5 and counts.shape[1] == max(widths)
        assert list(np.count_nonzero(counts, axis=1)) == widths
        assert list(cache["lowrank"]) == [c._cache["lowrank"] for c in singles]
        assert not cache["lowrank"].any()   # 60 pairs: below the series' size rule
        # a padded value repeats one the row drew (xy couples x itself)
        for r, s in enumerate(PADDING_SAMPLES):
            assert set(cache["coupled_x"][r, :, 0]) == set(s.x)

    @pytest.mark.parametrize("gamma", [1.0, 2.0, 0.5, 0.0])
    @pytest.mark.parametrize("basis", list(PADDING_BASES))
    def test_rows_match_their_own_contexts(self, basis, gamma):
        model, stack, singles, theta = self.contexts(basis, gamma)
        div = stack.divergence
        with np.errstate(over="ignore", invalid="ignore"):
            stacked = {"paired": model._paired_term(div, theta, stack._cache, True),
                       "cross": model._cross_term(div, theta, stack._cache, True),
                       "profile": model._profile(div, theta[:, 1:], stack._cache)}
            for shifted in (False, True):
                stacked[shifted] = model._cross_sums(div, theta, stack._cache, True, shifted)
        for r, ctx in enumerate(singles):
            cache = ctx._cache
            self.check([q[r] for q in stacked["paired"]],
                       row0(model._paired_term, div, theta[r], cache, True))
            self.check([q[r] for q in stacked["cross"]],
                       row0(model._cross_term, div, theta[r], cache, True))
            self.check([q[r] for q in stacked["profile"]],
                       row0(model._profile, div, theta[r, 1:], cache))
            for shifted in (False, True):
                m, pairs, shift = stacked[shifted]
                want = row0(model._cross_sums, div, theta[r], cache, True, shifted)
                # xy,x2y2's row 2 (x = sign x) couples one term on its own
                # and two in the stack: the factored sums shift by a bound on
                # gamma s, the dense block by its largest entry
                rescale = np.exp(shift[r] - want[2])
                self.check([m[r] * rescale, pairs[r] * rescale], want[:2])
                if ("scale" in cache) == ("scale" in stack._cache):
                    assert shift[r] == want[2]

    @pytest.mark.parametrize("gamma", [1.0, 2.0])
    def test_mixed_stack_rows_take_their_own_routes(self, gamma, monkeypatch):
        model, div = ExpBilinearModel(["x", "y", "xy"]), DivergenceSpec(gamma)
        stack = ObjectiveContext(div, model, MIXED_SAMPLES)
        singles = [ObjectiveContext(div, model, s) for s in MIXED_SAMPLES]
        assert list(stack._cache["lowrank"]) == [True, False, True, True]
        theta = MIXED_THETA
        for shifted in (False, True):
            with monkeypatch.context() as patch:
                rows = route_rows(patch)
                m, pairs, shift = model._cross_sums(div, theta, stack._cache, True, shifted)
            assert rows == {"series": 1, "kernel": 2, "dense": 1}
            for r, ctx in enumerate(singles):
                with monkeypatch.context() as patch:
                    rows = route_rows(patch)
                    want = row0(model._cross_sums, div, theta[r], ctx._cache, True, shifted)
                assert rows[MIXED_ROUTES[r]] == 1 and sum(rows.values()) == 1, r
                self.check([m[r], pairs[r], shift[r]], want)
        with np.errstate(over="ignore", invalid="ignore"):
            cross = model._cross_term(div, theta, stack._cache, True)
            profile = model._profile(div, theta[:, 1:], stack._cache)
        for r, ctx in enumerate(singles):
            self.check([q[r] for q in cross],
                       row0(model._cross_term, div, theta[r], ctx._cache, True))
            self.check([q[r] for q in profile],
                       row0(model._profile, div, theta[r, 1:], ctx._cache))


def test_finite_dimension_and_theta0():
    model = FiniteDiscreteModel([1, 2, 3], [1, 2])
    assert model.dim == 1 + (3 * 2 - 1)
    assert np.all(model.theta0 == 0.0)
    assert model.h(model.theta0, 3, 2) == pytest.approx(1.0)


def test_fgm_bounds_must_stay_in_unit_interval():
    with pytest.raises(ValueError):
        FgmCopulaModel(theta_bounds=(-1.5, 0.5))
