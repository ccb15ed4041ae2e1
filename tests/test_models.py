import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.stats import multivariate_normal, norm

from phimi import (
    BoundsError,
    ExpBilinearModel,
    FgmCopulaModel,
    FiniteDiscreteModel,
    LengthMismatchError,
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
        with pytest.raises(SupportError):
            fgm.h([0.1], 1.5, 0.5)


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
        m = rank_transform([3.0, 1.0, 2.0], [1.0, 2.0, 3.0])
        assert np.allclose(m.u, [0.75, 0.25, 0.50])
        assert np.allclose(m.v, [0.25, 0.50, 0.75])

    def test_mid_ranks_for_ties(self):
        m = rank_transform([1.0, 1.0], [1.0, 2.0])
        assert np.allclose(m.u, [0.5, 0.5])

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
        assert np.allclose(before.u, after.u)


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


def test_finite_dimension_and_theta0():
    model = FiniteDiscreteModel([1, 2, 3], [1, 2])
    assert model.dim == 1 + (3 * 2 - 1)
    assert np.all(model.theta0 == 0.0)
    assert model.h(model.theta0, 3, 2) == pytest.approx(1.0)


def test_fgm_bounds_must_stay_in_unit_interval():
    with pytest.raises(ValueError):
        FgmCopulaModel(theta_bounds=(-1.5, 0.5))
