"""Grid construction, finite differences, and quadrature."""
import numpy as np
import pytest

from stochaction.errors import ConfigurationError, ShapeError
from stochaction.lattice import (build_grid, check_field, gradient,
                                 gradient_uniform, integrate,
                                 quadrature_weights, second_derivative_uniform,
                                 trapezoid_cdf, whole_steps)


def test_build_grid_spacing_is_exact():
    grid = build_grid(16, 0.0, 15.0)
    assert grid.dq == 1.0
    grid = build_grid(101, -5.0, 5.0)
    assert grid.dq == pytest.approx(0.1, abs=1e-15)


def test_build_grid_points_map_linearly():
    grid = build_grid(33, -2.0, 2.0)
    pts = grid.points()
    assert pts[0] == -2.0
    assert pts[-1] == 2.0
    assert np.max(np.abs(pts - (-2.0 + np.arange(33) * grid.dq))) == 0.0


def test_build_grid_rejects_too_few_points():
    with pytest.raises(ConfigurationError):
        build_grid(3, 0.0, 1.0)
    with pytest.raises(ConfigurationError):
        build_grid(15, 0.0, 1.0)


def test_build_grid_rejects_degenerate_bounds():
    with pytest.raises(ConfigurationError):
        build_grid(16, 2.0, 2.0)
    with pytest.raises(ConfigurationError):
        build_grid(16, 3.0, 1.0)


def test_gradient_of_constant_is_zero():
    grid = build_grid(64, -1.0, 1.0)
    f = np.full(grid.n, 4.25)
    assert np.max(np.abs(gradient(f, grid))) == 0.0


def test_gradient_of_linear_is_one_everywhere():
    grid = build_grid(64, -1.0, 1.0)
    g = gradient(grid.points().copy(), grid)
    # one-sided edge stencils are exact for polynomials up to degree two,
    # so the boundary values are as exact as the interior
    assert np.max(np.abs(g - 1.0)) < 1e-13


def test_gradient_of_quadratic_exact_at_interior_point():
    grid = build_grid(101, -5.0, 5.0)   # q = 1 on-grid, dq = 0.1
    q = grid.points()
    g = gradient(q ** 2, grid)
    i = int(round((1.0 - grid.q_min) / grid.dq))
    assert q[i] == pytest.approx(1.0, abs=1e-12)
    assert g[i] == pytest.approx(2.0, abs=1e-12)


def test_gradient_rejects_mismatched_length():
    grid = build_grid(32, 0.0, 1.0)
    with pytest.raises(ShapeError):
        gradient(np.zeros(31), grid)


def test_gradient_is_linear_in_its_argument():
    grid = build_grid(80, -3.0, 3.0)
    rng = np.random.default_rng(5)
    f = rng.standard_normal(grid.n)
    g = rng.standard_normal(grid.n)
    lhs = gradient(2.5 * f - 1.25 * g, grid)
    rhs = 2.5 * gradient(f, grid) - 1.25 * gradient(g, grid)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_stencils_on_a_stack_of_rows_match_each_row_bitwise():
    rng = np.random.default_rng(7)
    rows = rng.standard_normal((3, 40))
    for stencil in (gradient_uniform, second_derivative_uniform):
        stacked = stencil(rows, 0.1)
        for r in range(3):
            assert np.array_equal(stacked[r], stencil(rows[r], 0.1))


def test_gradient_interior_error_is_second_order():
    errs = []
    for n in (101, 201):
        grid = build_grid(n, -2.0, 2.0)
        q = grid.points()
        err = gradient(np.sin(q), grid) - np.cos(q)
        errs.append(np.max(np.abs(err[2:-2])))
    ratio = errs[0] / errs[1]
    assert abs(ratio - 4.0) < 0.8   # within 20% of the dq^2 factor


def test_second_derivative_interior_error_is_second_order():
    errs = []
    for n in (101, 201):
        grid = build_grid(n, -2.0, 2.0)
        q = grid.points()
        err = second_derivative_uniform(np.sin(q), grid.dq) + np.sin(q)
        errs.append(np.max(np.abs(err[2:-2])))
    ratio = errs[0] / errs[1]
    assert abs(ratio - 4.0) < 0.8


def test_integrate_zero_and_constant():
    grid = build_grid(21, 0.0, 2.0)
    assert integrate(np.zeros(grid.n), grid) == 0.0
    assert integrate(np.ones(grid.n), grid) == pytest.approx(2.0, abs=1e-14)


def test_integrate_normalized_gaussian():
    grid = build_grid(512, -10.0, 10.0)
    q = grid.points()
    f = np.exp(-q ** 2 / 2.0) / np.sqrt(2.0 * np.pi)
    assert integrate(f, grid) == pytest.approx(1.0, abs=1e-8)


def test_integrate_nonnegative_field_is_nonnegative():
    grid = build_grid(64, -1.0, 1.0)
    rng = np.random.default_rng(11)
    f = rng.random(grid.n)
    assert integrate(f, grid) >= 0.0


def test_quadrature_weights_match_trapezoid():
    grid = build_grid(40, 0.0, 3.0)
    rng = np.random.default_rng(3)
    f = rng.standard_normal(grid.n)
    assert float(quadrature_weights(grid) @ f) == pytest.approx(
        integrate(f, grid), abs=1e-14)


def test_check_field_rejects_non_finite_entries():
    grid = build_grid(32, 0.0, 1.0)
    f = np.zeros(grid.n)
    f[5] = np.nan
    with pytest.raises(ShapeError):
        check_field(f, grid)
    f[5] = np.inf
    with pytest.raises(ShapeError):
        check_field(f, grid)


def test_whole_steps_counts_a_span_and_takes_a_zero_one():
    assert whole_steps(1.0, 1e-3) == 1000
    assert whole_steps(0.5 * 1e-2, 1e-3) == 5
    assert whole_steps(0.0, 1e-2) == 0


@pytest.mark.parametrize("span,step,match", [
    (1.0, 0.0, "step must be"),
    (1.0, -1e-3, "step must be"),
    (1.0, np.nan, "step must be"),
    (1.0, np.inf, "step must be"),
    (-1.0, 1e-3, "span must be"),
    (np.nan, 1e-3, "span must be"),
    (np.inf, 1e-3, "span must be"),
    (1.0, 0.3, "does not divide"),
    (1.0, 5e-324, "does not divide"),   # the ratio overflows
])
def test_whole_steps_refuses_a_bad_step_or_span(span, step, match):
    with pytest.raises(ConfigurationError, match=match):
        whole_steps(span, step)


def test_trapezoid_cdf_runs_from_zero_to_the_integral():
    grid = build_grid(65, -2.0, 2.0)
    f = np.exp(-grid.points() ** 2)
    cdf = trapezoid_cdf(f, grid)
    assert cdf.shape == (grid.n,) and cdf[0] == 0.0
    assert np.all(np.diff(cdf) > 0)
    assert cdf[-1] == pytest.approx(integrate(f, grid), rel=1e-14)
