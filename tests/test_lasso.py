import numpy as np
import pytest

from autocast.models import lasso
from autocast.models.gam import N_SPLINE_KNOTS, _standardize, build_design_rows
from autocast.models.lasso import (
    default_lambda_grid,
    lambda_max,
    lasso_coordinate_descent,
    lasso_path,
    select_lambda,
    soft_threshold,
)

from helpers import kkt_violation, seasonal_values
from oracles import lasso_objective, lasso_path_refactoring


def random_system(rng, n=40, k=6):
    """Well-conditioned design with an intercept column and standardized regressors."""
    while True:
        M = rng.normal(0.0, 1.0, size=(n, k))
        M = (M - M.mean(axis=0)) / M.std(axis=0)
        M = np.column_stack([np.ones(n), M])
        sv = np.linalg.svd(M, compute_uv=False)
        if sv[0] / sv[-1] < 100.0:
            break
    beta_true = rng.normal(0.0, 2.0, size=k + 1)
    y = M @ beta_true + rng.normal(0.0, 0.1, size=n)
    return M, y


class TestSoftThreshold:
    def test_above_threshold(self):
        assert soft_threshold(5.0, 2.0) == 3.0

    def test_below_negative_threshold(self):
        assert soft_threshold(-5.0, 2.0) == -3.0

    def test_deadzone(self):
        assert soft_threshold(1.5, 2.0) == 0.0
        assert soft_threshold(-1.5, 2.0) == 0.0
        assert soft_threshold(0.0, 0.0) == 0.0


class TestCoordinateDescent:
    def test_matches_dense_least_squares_at_lambda_zero(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            M, y = random_system(rng)
            beta = lasso_coordinate_descent(M, y, 0.0)
            expected = np.linalg.lstsq(M, y, rcond=None)[0]
            assert np.max(np.abs(beta - expected)) < 1e-6

    def test_single_column_hand_example(self):
        M = np.array([[1.0], [2.0], [3.0]])
        y = np.array([2.0, 4.0, 6.0])
        beta = lasso_coordinate_descent(M, y, 0.0)
        assert beta[0] == pytest.approx(2.0, abs=1e-12)

    def test_lambda_at_or_above_lambda_max_zeroes_penalized_coefficients(self):
        rng = np.random.default_rng(1)
        M, y = random_system(rng)
        top = lambda_max(M, y)
        for lam in (top, 2.0 * top):
            beta = lasso_coordinate_descent(M, y, lam)
            assert np.allclose(beta[1:], 0.0)
            assert beta[0] == pytest.approx(y.mean(), rel=1e-9)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            lasso_coordinate_descent(np.ones((3, 2)), np.ones(4), 0.0)

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            lasso_coordinate_descent(np.ones((3, 2)), np.ones(3), -0.1)

    def test_non_finite_design_names_the_column(self):
        M = np.column_stack([np.ones(4), np.arange(4.0), np.full(4, np.inf)])
        with pytest.raises(ValueError, match="column 2"):
            lasso_coordinate_descent(M, np.arange(4.0), 0.0)

    def test_objective_non_increasing_over_sweeps(self):
        rng = np.random.default_rng(3)
        M, y = random_system(rng)
        lam = 0.3 * lambda_max(M, y)
        # coordinate descent from zeros is deterministic, so capping the
        # sweep count exposes successive points of one trajectory
        objectives = [
            lasso_objective(M, y, lasso_coordinate_descent(M, y, lam, max_sweeps=s), lam)
            for s in (1, 2, 3, 5, 8, 13, 100)
        ]
        for earlier, later in zip(objectives, objectives[1:]):
            assert later <= earlier + 1e-12

    def test_subgradient_optimality_at_positive_lambda(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            M, y = random_system(rng)
            lam = float(rng.uniform(0.05, 0.8)) * lambda_max(M, y)
            beta = lasso_coordinate_descent(M, y, lam)
            assert kkt_violation(M, y, beta, lam) < 1e-6


class TestLassoPath:
    def test_optimal_at_every_grid_lambda(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            M, y = random_system(rng, n=int(rng.integers(12, 60)), k=int(rng.integers(1, 12)))
            grid = default_lambda_grid(M, y)
            for lam, beta in zip(grid, lasso_path(M, y, grid)):
                assert kkt_violation(M, y, beta, lam) <= 1e-6

    def test_agrees_with_coordinate_descent(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            M, y = random_system(rng)
            grid = default_lambda_grid(M, y)
            for lam, beta in zip(grid, lasso_path(M, y, grid)):
                assert np.max(np.abs(beta - lasso_coordinate_descent(M, y, lam))) < 1e-6

    def test_at_or_above_lambda_max_gives_zeros_and_the_mean(self):
        # lambda_max is the path's first kink to the last bit, so at lambda_max
        # no penalized coefficient reads rounding noise: on random systems, and
        # on standardized GAM designs of 12-96 rows with five targets each
        rng = np.random.default_rng(10)
        systems = [random_system(rng, n=int(rng.integers(12, 60)), k=int(rng.integers(1, 12))) for _ in range(400)]
        for n in range(12, 97):
            M = gam_system(n)[0]
            systems += [(M, seasonal_values(n, level=500.0, amplitude=120.0, slope=3.0, noise=40.0, seed=100 * s + n)) for s in range(5)]
        for M, y in systems:
            top = lambda_max(M, y)
            for beta in lasso_path(M, y, [top, 2.0 * top, 1e9]):
                assert np.all(beta[1:] == 0.0)
                assert beta[0] == pytest.approx(y.mean(), rel=1e-12)

    def test_lambda_zero_is_least_squares(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            M, y = random_system(rng)
            beta = lasso_path(M, y, [0.0])[0]
            assert np.max(np.abs(beta - np.linalg.lstsq(M, y, rcond=None)[0])) < 1e-8

    def test_grid_order_does_not_change_the_result(self):
        rng = np.random.default_rng(12)
        M, y = random_system(rng)
        grid = default_lambda_grid(M, y)
        order = rng.permutation(len(grid))
        np.testing.assert_array_equal(lasso_path(M, y, grid[order]), lasso_path(M, y, grid)[order])

    def test_constant_columns_stay_zero(self):
        rng = np.random.default_rng(13)
        M, y = random_system(rng)
        M = np.column_stack([M, np.zeros(len(y)), np.full(len(y), -0.7)])
        grid = np.append(default_lambda_grid(M, y), 0.0)
        for lam, beta in zip(grid, lasso_path(M, y, grid)):
            assert beta[-2] == 0.0 and beta[-1] == 0.0
            assert kkt_violation(M, y, beta, lam) <= 1e-6

    def test_duplicated_column_is_set_aside(self):
        rng = np.random.default_rng(14)
        M, y = random_system(rng)
        M = np.column_stack([M, M[:, 1]])
        grid = np.append(default_lambda_grid(M, y), 0.0)
        for lam, beta in zip(grid, lasso_path(M, y, grid)):
            assert kkt_violation(M, y, beta, lam) <= 1e-6

    def test_saturated_design(self):
        # 10 rows, 15 penalized columns: the active set fills the row space
        rng = np.random.default_rng(15)
        X = rng.normal(size=(10, 15))
        M = np.column_stack([np.ones(10), (X - X.mean(axis=0)) / X.std(axis=0)])
        y = rng.normal(50.0, 10.0, size=10)
        grid = np.append(default_lambda_grid(M, y), 0.0)
        betas = lasso_path(M, y, grid)
        for lam, beta in zip(grid, betas):
            assert kkt_violation(M, y, beta, lam) <= 1e-6
        assert np.count_nonzero(betas[-1][1:]) == 9
        assert np.max(np.abs(M @ betas[-1] - y)) < 1e-8

    def test_step_cap_raises(self, monkeypatch):
        rng = np.random.default_rng(16)
        M, y = random_system(rng)
        monkeypatch.setattr(lasso, "MAX_PATH_STEPS", 2)
        with pytest.raises(ValueError, match="steps"):
            lasso_path(M, y, [0.0])

    def test_non_finite_design_names_the_column(self):
        M = np.column_stack([np.ones(4), np.arange(4.0), np.full(4, np.inf)])
        with pytest.raises(ValueError, match="column 2"):
            lasso_path(M, np.arange(4.0), [0.0])
        # finite entries whose products overflow are named as well
        M[:, 2] = [0.0, 1e200, 0.0, -1e200]
        with pytest.raises(ValueError, match="column 2"):
            lasso_path(M, np.arange(4.0), [0.0])

    def test_non_finite_target_rejected(self):
        with pytest.raises(ValueError, match="target"):
            lasso_path(np.ones((3, 2)), np.array([1.0, np.nan, 2.0]), [0.0])

    def test_shape_mismatch_and_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            lasso_path(np.ones((3, 2)), np.ones(4), [0.0])
        with pytest.raises(ValueError, match="lambda"):
            lasso_path(np.ones((3, 2)), np.ones(3), [0.1, -0.1])


def assert_matches_refactoring_path(M, y, grid):
    """Same support as the per-kink-refactoring reference, within 1e-9 of each row's largest coefficient.

    Both paths start at lambda_max to the last bit, so at that grid point
    every penalized coefficient is exactly zero in either.
    """
    expected = lasso_path_refactoring(M, y, grid)
    betas = lasso_path(M, y, grid)
    scale = np.max(np.abs(expected), axis=1, keepdims=True)
    np.testing.assert_array_equal(betas[:, 1:] != 0.0, expected[:, 1:] != 0.0)
    assert np.all(np.abs(betas - expected) <= 1e-9 * scale)


def gam_system(n):
    """A standardized monthly GAM design on n rows and a seasonal trending target."""
    knots = tuple((i + 1) / (N_SPLINE_KNOTS + 1) for i in range(N_SPLINE_KNOTS))
    M = _standardize(build_design_rows(np.arange(n), n, 12, 3, knots))[0]
    y = seasonal_values(n, level=500.0, amplitude=120.0, slope=3.0, noise=40.0, seed=n)
    return M, y


class TestCarriedFactorization:
    def test_matches_reference_on_random_systems(self):
        rng = np.random.default_rng(18)
        for _ in range(20):
            M, y = random_system(rng, n=int(rng.integers(12, 60)), k=int(rng.integers(1, 12)))
            assert_matches_refactoring_path(M, y, np.append(default_lambda_grid(M, y), 0.0))

    def test_matches_reference_on_duplicated_and_saturated_designs(self):
        rng = np.random.default_rng(14)
        M, y = random_system(rng)
        M = np.column_stack([M, M[:, 1]])
        assert_matches_refactoring_path(M, y, np.append(default_lambda_grid(M, y), 0.0))
        rng = np.random.default_rng(15)
        X = rng.normal(size=(10, 15))
        M = np.column_stack([np.ones(10), (X - X.mean(axis=0)) / X.std(axis=0)])
        y = rng.normal(50.0, 10.0, size=10)
        assert_matches_refactoring_path(M, y, np.append(default_lambda_grid(M, y), 0.0))

    @pytest.mark.parametrize("n", [8, 12, 15, 24, 36, 48, 72, 96])
    def test_matches_reference_on_gam_designs(self, n):
        # the whole history, as the final fit sees it, and the 80 % head that
        # lambda selection fits on
        M, y = gam_system(n)
        for rows in (slice(None), slice(0, int(round(n * 0.8)))):
            grid = default_lambda_grid(M[rows], y[rows])
            assert_matches_refactoring_path(M[rows], y[rows], grid)

    def test_column_that_leaves_joins_again(self):
        # two correlated columns: column 2 joins, is pushed out as lambda
        # falls, and rejoins near the least-squares end of the path, so the
        # path refactors after a leave and then extends that factorization
        rng = np.random.default_rng(183)
        X = rng.normal(size=(20, 4))
        X[:, 1] += 0.9 * X[:, 0]
        M = np.column_stack([np.ones(20), (X - X.mean(axis=0)) / X.std(axis=0)])
        y = M @ rng.normal(0.0, 2.0, 5) + rng.normal(0.0, 1.0, 20)
        grid = np.linspace(lambda_max(M, y), 0.0, 401)
        betas = lasso_path(M, y, grid)
        nonzero = betas[:, 2] != 0.0
        phases = [bool(nonzero[0])] + [b for a, b in zip(nonzero, nonzero[1:]) if a != b]
        assert phases == [False, True, False, True]
        for lam, beta in zip(grid, betas):
            assert kkt_violation(M, y, beta, lam) <= 1e-6
        assert_matches_refactoring_path(M, y, grid)


class TestObjective:
    def test_hand_value(self):
        M = np.array([[1.0, 1.0], [1.0, 2.0]])
        y = np.array([1.0, 2.0])
        beta = np.array([0.0, 0.5])
        # residuals (0.5, 1.0), sse/2n = 1.25/4; penalty 2*0.5
        assert lasso_objective(M, y, beta, 2.0) == pytest.approx(1.25 / 4 + 1.0, abs=1e-12)

    def test_intercept_not_penalized(self):
        M = np.ones((2, 1))
        y = np.array([3.0, 3.0])
        assert lasso_objective(M, y, np.array([3.0]), 100.0) == 0.0


class TestLambdaSelection:
    def test_grid_spans_four_decades(self):
        rng = np.random.default_rng(5)
        M, y = random_system(rng)
        grid = default_lambda_grid(M, y)
        assert len(grid) == 10
        assert grid[0] == pytest.approx(lambda_max(M, y))
        assert grid[-1] == pytest.approx(grid[0] * 1e-4)
        assert np.all(np.diff(grid) < 0)

    def test_selection_returns_grid_member(self):
        rng = np.random.default_rng(6)
        M, y = random_system(rng)
        grid = default_lambda_grid(M, y)
        assert select_lambda(M, y, grid) in grid

    def test_selection_matches_coordinate_descent_reference(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            M, y = random_system(rng)
            grid = default_lambda_grid(M, y)
            cut = int(round(len(y) * 0.8))
            errors = [
                np.mean((y[cut:] - M[cut:] @ lasso_coordinate_descent(M[:cut], y[:cut], lam)) ** 2)
                for lam in grid
            ]
            assert select_lambda(M, y, grid) == grid[int(np.argmin(errors))]

    def test_selection_deterministic(self):
        rng = np.random.default_rng(7)
        M, y = random_system(rng)
        assert select_lambda(M, y) == select_lambda(M, y)
