import numpy as np
import pytest

from reboost import boosters, linesearch
from reboost.core import DegenerateDirectionError, InvalidInputError, UnboundedDescentError
from reboost.linesearch import line_search
from reboost.losses import LossKind, _residuals, empirical_risk, risk_slope
from reboost.synthdata import gen_orange

SQUARED = LossKind.SQUARED


def golden_oracle(f, lo, hi, tol=1e-12):
    """Plain golden-section minimizer, written independently of the module.

    Runs in extended precision: near the minimum the objective is flat to
    float64 rounding, which would otherwise cap localization around 1e-8.
    """
    phi = (np.sqrt(np.longdouble(5.0)) - 1.0) / 2.0
    a, b = np.longdouble(lo), np.longdouble(hi)
    x1, x2 = b - phi * (b - a), a + phi * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > tol:
        if f1 < f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - phi * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + phi * (b - a)
            f2 = f(x2)
    return float(0.5 * (a + b))


class TestLineSearchL2:
    def test_constant_shift(self):
        assert line_search(SQUARED, [0.0, 0.0], [1.0, 1.0], [2.0, 2.0]) == pytest.approx(2.0)

    def test_orthogonal_residual(self):
        assert line_search(SQUARED, [0.0, 0.0], [1.0, 1.0], [1.0, -1.0]) == pytest.approx(0.0)

    def test_zero_direction(self):
        with pytest.raises(DegenerateDirectionError):
            line_search(SQUARED, [0.0], [0.0], [1.0])

    def test_underflowing_direction(self):
        # every g_i is nonzero, but g.g underflows to 0
        with pytest.raises(DegenerateDirectionError):
            line_search(SQUARED, np.zeros(2), np.full(2, 1e-170), np.ones(2))

    def test_matches_golden_section_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            base = rng.normal(size=25).astype(np.longdouble)
            g = rng.normal(size=25).astype(np.longdouble)
            y = rng.normal(size=25).astype(np.longdouble)
            beta = line_search(SQUARED, base.astype(float), g.astype(float),
                               y.astype(float))
            oracle = golden_oracle(
                lambda b: np.mean((base + b * g - y) ** 2),
                beta - 10.0, beta + 10.0)
            assert beta == pytest.approx(oracle, abs=1e-8)


class TestLineSearchGeneric:
    def test_squared_agrees_with_closed_form(self):
        rng = np.random.default_rng(1)
        base, g, y = rng.normal(size=20), rng.normal(size=20), rng.normal(size=20)
        got = line_search(LossKind.SQUARED, base, g, y)
        assert got == pytest.approx(g @ (y - base) / (g @ g), abs=1e-10)

    def test_bound_clamps_convexly(self):
        # unconstrained minimizer 5, bound 0.1 -> returns 0.1
        base = np.zeros(3)
        g = np.ones(3)
        y = np.full(3, 5.0)
        assert line_search(LossKind.SQUARED, base, g, y, bound=0.1) == pytest.approx(0.1)

    def test_logistic_stationary_point(self):
        # two positives pulled up, one negative pulled up: minimizer ln 2
        y = np.array([1.0, 1.0, -1.0])
        g = np.array([1.0, 1.0, 1.0])
        beta = line_search(LossKind.LOGISTIC, np.zeros(3), g, y)
        assert beta > 0.0
        assert beta == pytest.approx(np.log(2.0), abs=1e-6)
        h = 1e-6
        fd = (empirical_risk(LossKind.LOGISTIC, (beta + h) * g, y)
              - empirical_risk(LossKind.LOGISTIC, (beta - h) * g, y)) / (2.0 * h)
        assert abs(fd) <= 1e-6

    def test_separable_data_unbounded(self):
        # every sample improves forever along g: no finite minimizer
        y = np.array([1.0, 1.0, -1.0])
        g = np.array([1.0, 1.0, -1.0])
        with pytest.raises(UnboundedDescentError) as exc:
            line_search(LossKind.LOGISTIC, np.zeros(3), g, y)
        assert exc.value.edge == 2.0 ** 60

    def test_exponential_separable_unbounded(self):
        y = np.array([1.0, -1.0])
        g = np.array([2.0, -2.0])
        with pytest.raises(UnboundedDescentError):
            line_search(LossKind.EXPONENTIAL, np.zeros(2), g, y)

    def test_descent_toward_negative_edge(self):
        y = np.array([1.0, 1.0, -1.0])
        g = np.array([-1.0, -1.0, 1.0])
        with pytest.raises(UnboundedDescentError) as exc:
            line_search(LossKind.LOGISTIC, np.zeros(3), g, y)
        assert exc.value.edge == -(2.0 ** 60)

    @pytest.mark.parametrize("kind", [LossKind.LOGISTIC, LossKind.EXPONENTIAL])
    def test_far_minimizer(self, kind):
        # margins 0 and 4 pulled together at rate 1e-6 each: beta* = 4 / 2e-6,
        # where an absolute tolerance of 1e-10 is below the spacing of doubles
        base, g, y = np.array([0.0, -4.0]), np.full(2, 1e-6), np.array([1.0, -1.0])
        beta = line_search(kind, base, g, y)
        assert beta == pytest.approx(2e6, rel=1e-9)
        assert relative_slope(kind, base, g, y, beta) <= 1e-9

    @pytest.mark.parametrize("kind", [LossKind.LOGISTIC, LossKind.EXPONENTIAL])
    def test_slow_newton_falls_back_to_bisection(self, kind):
        # margins 0 and 1000 pulled together at unit rate: from a probe past
        # beta* = 500, Newton walks back by about one unit a step, so the
        # search must bisect once the Newton steps stop halving
        base, g, y = np.array([0.0, -1000.0]), np.ones(2), np.array([1.0, -1.0])
        assert line_search(kind, base, g, y) == pytest.approx(500.0, rel=1e-9)

    def test_overflowing_exponential_probe_bisects(self):
        # the first probe lands where exp overflows, so R' = R'' = +inf there
        # and the Newton step inf / inf is NaN: the search must bisect, not
        # return NaN; R(0) = 5.6e291 is finite
        base = np.array([696.0939101, 673.16947429, 259.75877827, 210.64298677])
        g = np.array([-10.0961818, -2.09175575e-4, -1.59225010e-5, 5.40845585e-6])
        y = np.array([1.0, -1.0, 1.0, 1.0])
        kind = LossKind.EXPONENTIAL
        beta = line_search(kind, base, g, y)
        assert np.isfinite(beta)
        assert empirical_risk(kind, base + beta * g, y) <= empirical_risk(kind, base, y)

    def test_stationary_start_returns_zero(self):
        y = np.array([1.0, -1.0])
        assert line_search(LossKind.LOGISTIC, np.zeros(2), np.ones(2), y) == 0.0

    @pytest.mark.parametrize("bound, expected", [(0.1, 0.1), (10.0, np.log(2.0))])
    def test_logistic_bound(self, bound, expected):
        # unconstrained minimizer ln 2: clamped to a small bound, kept inside a large one
        y = np.array([1.0, 1.0, -1.0])
        beta = line_search(LossKind.LOGISTIC, np.zeros(3), np.ones(3), y, bound=bound)
        assert beta == pytest.approx(expected, rel=1e-12)
        assert line_search(LossKind.LOGISTIC, np.zeros(3), -np.ones(3), y,
                           bound=bound) == pytest.approx(-expected, rel=1e-12)

    def test_zero_direction(self):
        with pytest.raises(DegenerateDirectionError):
            line_search(LossKind.LOGISTIC, np.zeros(2), np.zeros(2), np.array([1.0, -1.0]))

    @pytest.mark.parametrize("kind", list(LossKind))
    @pytest.mark.parametrize("bound", [0.0, -1.0, float("nan"), float("inf")])
    def test_non_positive_bound_rejected(self, kind, bound):
        y = np.array([1.0, -1.0, 1.0])
        with pytest.raises(InvalidInputError, match="bound"):
            line_search(kind, np.zeros(3), np.array([1.0, 0.5, -2.0]), y, bound=bound)


def random_instance(rng, kind):
    m = int(rng.integers(5, 25))
    base = rng.normal(size=m)
    g = rng.normal(size=m)
    y = rng.choice((-1.0, 1.0), size=m) if kind.is_classification else rng.normal(size=m)
    return base, g, y


def relative_slope(kind, base, g, y, beta):
    """|R'(beta)| over the mean magnitude of its terms loss'(f_i) g_i: at an
    exact minimizer, rounding alone leaves this near machine epsilon."""
    terms = _residuals(kind, base + beta * g, y) * g
    return abs(np.mean(terms)) / np.mean(np.abs(terms))


class TestProperties:
    @pytest.mark.parametrize("kind", list(LossKind))
    def test_stationarity(self, kind):
        rng = np.random.default_rng(2)
        checked = 0
        while checked < 100:
            base, g, y = random_instance(rng, kind)
            try:
                beta = line_search(kind, base, g, y)
            except UnboundedDescentError:
                continue
            checked += 1
            # Newton ends near 1e-16 here; a last bisection step within the
            # relative tolerance 1e-10 would leave about 1e-10
            assert relative_slope(kind, base, g, y, beta) <= 1e-9

    @pytest.mark.parametrize("kind", list(LossKind))
    def test_bound_clamps_unbounded_minimizer(self, kind):
        # R is convex, so the minimizer over [-t, t] is the unbounded one
        # clamped to [-t, t]; with no finite minimizer it is the bound on
        # the side of the descent
        rng = np.random.default_rng(5)
        seen = {"inside": 0, "outside": 0, "unbounded": 0}
        for _ in range(200):
            base, g, y = random_instance(rng, kind)
            try:
                star = line_search(kind, base, g, y)
            except UnboundedDescentError as err:
                t = float(np.exp(rng.uniform(-3.0, 3.0)))
                cases = [(t, np.copysign(t, err.edge), "unbounded")]
            else:
                inside = abs(star) * rng.uniform(1.1, 10.0)
                outside = abs(star) * rng.uniform(0.1, 0.9)
                cases = [(inside, star, "inside")]
                if outside > 0.0:
                    cases.append((outside, np.copysign(outside, star), "outside"))
            for t, expected, case in cases:
                got = line_search(kind, base, g, y, bound=t)
                if case == "inside":
                    assert abs(got - expected) <= 1e-9 * abs(expected), (case, t, got)
                else:  # the bound itself, exactly
                    assert got == expected, (case, t, got, expected)
                seen[case] += 1
        assert seen["inside"] > 0 and seen["outside"] > 0
        assert (seen["unbounded"] > 0) == kind.is_classification

    @pytest.mark.parametrize("kind", [LossKind.LOGISTIC, LossKind.EXPONENTIAL])
    def test_no_point_evaluated_twice(self, kind, monkeypatch):
        # every probe of the one search loop is a new point
        points = []

        def recording(*args):
            slope = risk_slope(*args)

            def at(b):
                points.append(b)
                return slope(b)
            return at

        monkeypatch.setattr(linesearch, "risk_slope", recording)
        rng = np.random.default_rng(4)
        for _ in range(100):
            points.clear()
            try:
                line_search(kind, *random_instance(rng, kind))
            except UnboundedDescentError:
                continue
            assert len(points) == len(set(points))

    def test_risk_at_most_grid_minimum(self):
        # the grid spans 0 and twice the step on either side of it
        rng = np.random.default_rng(3)
        checked = 0
        while checked < 100:
            base, g, y = random_instance(rng, LossKind.LOGISTIC)
            try:
                beta = line_search(LossKind.LOGISTIC, base, g, y)
            except UnboundedDescentError:
                continue
            checked += 1
            reach = 2.0 * abs(beta) + 1.0
            grid = np.linspace(-reach, reach, 100_000)

            def grid_risks(idx):
                # one column per grid point, summed down the rows, so each
                # value equals that column of a whole-grid evaluation
                return np.mean(np.logaddexp(
                    0.0, -(y * base)[:, None] - grid[idx] * (y * g)[:, None]), axis=0)

            # R is convex in the step, so along the grid it falls, then
            # rises: bisect for the first point not above its successor
            lo, hi = 0, grid.size - 1
            while lo < hi:
                mid = (lo + hi) // 2
                here, after = grid_risks([mid, mid + 1])
                lo, hi = (mid + 1, hi) if after < here else (lo, mid)
            # rounding can tilt a flat bottom by an ulp: take its neighbours too
            grid_min = grid_risks(np.arange(max(lo - 2, 0), min(lo + 3, grid.size))).min()
            assert (empirical_risk(LossKind.LOGISTIC, base + beta * g, y)
                    <= grid_min + 1e-8)

    def test_slope_evaluations_per_search(self, monkeypatch):
        # effort counter over the 1,500 searches of 15 orange runs (logistic
        # loss, stumps, 100 steps): the bound 7.0 was fixed before this test
        # first ran. The one-loop search did 5.99 evaluations per search when
        # it was written, and the earlier bracket-then-Newton search 7.83
        counts = []

        def counting(*args):
            slope = risk_slope(*args)
            counts.append(0)

            def at(b):
                counts[-1] += 1
                return slope(b)
            return at

        monkeypatch.setattr(linesearch, "risk_slope", counting)
        variants = (boosters.Plain(), boosters.Shrunk(0.3), boosters.Truncated(1.0),
                    boosters.Rescale(boosters.ShrinkageSchedule.theorem()),
                    boosters.Rescale(boosters.ShrinkageSchedule.experimental(10.0)))
        for seed in range(3):
            data = gen_orange(100, 0, seed)
            for variant in variants:
                config = boosters.TrainConfig(100, LossKind.LOGISTIC,
                                              boosters.StumpLearner(), variant)
                boosters.train(data, config, seed)
        assert len(counts) == 1500
        assert np.mean(counts) < 7.0

    def test_zero_always_feasible(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            base, g, y = random_instance(rng, LossKind.LOGISTIC)
            try:
                beta = line_search(LossKind.LOGISTIC, base, g, y)
            except UnboundedDescentError:
                continue
            assert (empirical_risk(LossKind.LOGISTIC, base + beta * g, y)
                    <= empirical_risk(LossKind.LOGISTIC, base, y) + 1e-12)
