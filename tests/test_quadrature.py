"""Midpoint rules and the interpolation projection."""

import numpy as np
import pytest

from qintlab import holder, quadrature
from qintlab.grid import Grid
from qintlab.holder import test_suite as benchmark_suite
from qintlab.holder import HolderFunction, make_spec, suite_member
from qintlab.integrators import integrate_mc
from qintlab.ledger import ResourceLedger
from qintlab.quadrature import (
    CHUNK,
    PiecewiseInterpolant,
    interpolate,
    midpoint_rule,
    probe_sup,
    residual,
)

SPEC1 = make_spec(1, 0, 1)


def fn(evaluator, spec=SPEC1, integral=None, name="f"):
    return HolderFunction(evaluator, spec, exact_integral=integral, name=name)


def test_midpoint_constant_and_linear_are_exact():
    const = fn(lambda p: np.full(len(p), 0.3))
    for ell in (1, 3, 10):
        assert midpoint_rule(const, ell) == pytest.approx(0.3, abs=1e-15)
    linear = fn(lambda p: p[:, 0])
    for ell in (1, 2, 7, 64):
        assert midpoint_rule(linear, ell) == pytest.approx(0.5, abs=1e-14)


def test_midpoint_square_two_cells():
    square = fn(lambda p: p[:, 0] ** 2)
    assert midpoint_rule(square, 2) == pytest.approx(0.3125, abs=1e-15)


def test_midpoint_counts_evaluations():
    spec = make_spec(2, 0, 1)
    ledger = ResourceLedger()
    midpoint_rule(fn(lambda p: p.sum(axis=1), spec), 5, ledger)
    assert ledger.classical_evals == 25


def test_midpoint_tensor_matches_axis_product():
    # separable integrand: the tensor rule equals the product of 1-d rules
    spec = make_spec(2, 0, 1)
    f2 = fn(lambda p: p[:, 0] ** 2 * p[:, 1] ** 2, spec)
    f1 = fn(lambda p: p[:, 0] ** 2)
    assert midpoint_rule(f2, 4) == pytest.approx(midpoint_rule(f1, 4) ** 2, abs=1e-14)


def test_interpolate_budget_floor():
    with pytest.raises(ValueError):
        interpolate(fn(lambda p: p[:, 0], make_spec(1, 1, 1)), 1)


def test_interpolant_reproduces_node_values():
    f = fn(lambda p: np.sin(3 * p[:, 0]), make_spec(1, 2, 1))
    p = interpolate(f, 12)
    values = p.evaluate(p.node_points())
    assert np.allclose(values, p.node_values.ravel(), atol=1e-12)


def test_piecewise_constant_kink_residual():
    f = fn(lambda p: np.abs(p[:, 0] - 0.5))
    p = interpolate(f, 2)
    assert probe_sup(residual(f, p), p.ell) <= 0.25 + 1e-12


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_probe_sup_rejects_non_finite_values(bad):
    f = fn(lambda p: np.where(p[:, 0] > 0.5, bad, 0.0), name="spiky")
    with pytest.raises(ValueError, match="spiky is not finite"):
        probe_sup(f, 4)


def test_polynomial_reproduction():
    spec = make_spec(1, 2, 1)
    f = fn(lambda p: 0.2 + 0.3 * p[:, 0] - 0.4 * p[:, 0] ** 2, spec)
    p = interpolate(f, 9)
    assert probe_sup(residual(f, p), p.ell * 3) <= 1e-13
    assert p.exact_integral == pytest.approx(0.2 + 0.15 - 0.4 / 3, abs=1e-13)


def test_constant_integral_any_budget():
    f = fn(lambda p: np.full(len(p), 0.77))
    for budget in (1, 5, 100):
        assert interpolate(f, budget).exact_integral == pytest.approx(0.77, abs=1e-14)


def test_exact_integral_examples():
    linear = fn(lambda p: p[:, 0])
    p0 = interpolate(linear, 2)  # midpoint samples 0.25 and 0.75
    assert p0.exact_integral == pytest.approx(0.5, abs=1e-15)
    p1 = interpolate(fn(lambda p: p[:, 0], make_spec(1, 1, 1)), 4)
    assert p1.exact_integral == pytest.approx(0.5, abs=1e-14)


def test_exact_integral_matches_fine_quadrature():
    rng = np.random.default_rng(3)
    spec = make_spec(2, 1, 1)
    f = fn(lambda p: np.cos(p[:, 0]) * (1 + p[:, 1] ** 2) / 3, spec)
    p = interpolate(f, 256)
    wrapped = fn(p.evaluate, spec)
    assert midpoint_rule(wrapped, 400) == pytest.approx(p.exact_integral, abs=1e-8)


def test_residual_vanishes_at_nodes():
    f = fn(lambda p: np.exp(p[:, 0]) / 3, make_spec(1, 1, 1))
    p = interpolate(f, 10)
    g = residual(f, p)
    assert np.abs(g(p.node_points())).max() <= 1e-12


def test_residual_linear_function_high_order():
    f = fn(lambda p: 0.4 * p[:, 0], make_spec(1, 1, 1))
    p = interpolate(f, 8)
    assert probe_sup(residual(f, p), p.ell * 2) <= 1e-14


def test_residual_scaled_square_four_cells():
    # class member: x^2 / 2 has unit Lipschitz constant; cell width 1/4
    f = fn(lambda p: p[:, 0] ** 2 / 2)
    p = interpolate(f, 4)
    sup = probe_sup(residual(f, p), p.ell)
    assert 0.01 <= sup <= 0.14


def test_residual_linearity():
    spec = SPEC1
    f = fn(lambda p: np.sin(2 * p[:, 0]) / 2, spec)
    g = fn(lambda p: p[:, 0] ** 3 / 3, spec)
    combo = fn(lambda p: 0.6 * np.sin(2 * p[:, 0]) / 2 + 0.4 * p[:, 0] ** 3 / 3, spec)
    pts = np.random.default_rng(0).random((200, 1))
    pf, pg, pc = (interpolate(h, 16) for h in (f, g, combo))
    lhs = residual(combo, pc)(pts)
    rhs = 0.6 * residual(f, pf)(pts) + 0.4 * residual(g, pg)(pts)
    assert np.allclose(lhs, rhs, atol=1e-10)


def test_projection_idempotence():
    f = fn(lambda p: np.cos(2 * p[:, 0]) / 2, make_spec(1, 1, 1))
    p = interpolate(f, 16)
    again = interpolate(fn(p.evaluate, f.spec), 16)
    assert np.allclose(again.node_values, p.node_values, atol=1e-12)
    assert again.exact_integral == pytest.approx(p.exact_integral, abs=1e-13)


@pytest.mark.parametrize("params", [(1, 0, 1.0), (2, 0, 1.0), (1, 1, 1.0)])
def test_interpolation_residual_rate(params):
    spec = make_spec(*params)
    budgets = [4**i for i in range(1, 7)]
    for member in benchmark_suite(spec):
        sups, sizes = [], []
        for budget in budgets:
            p = interpolate(member, budget)
            sup = probe_sup(residual(member, p), p.ell * (spec.k + 1))
            if sup > 1e-12:  # skip reproduced members (constants, polynomials)
                sups.append(sup)
                sizes.append(p.n_points)
        if len(sups) < 4:
            continue
        slope = np.polyfit(np.log(sizes), np.log(sups), 1)[0]
        assert slope == pytest.approx(-spec.gamma, abs=0.15), member.name


@pytest.mark.parametrize("params", [(1, 0, 1.0), (2, 0, 1.0), (1, 0, 0.5)])
def test_midpoint_rate_on_rough_member(params):
    spec = make_spec(*params)
    member = suite_member(spec, "multiscale")
    ells = [4**i for i in range(2, 7 if spec.d == 1 else 6)]
    errors = [abs(midpoint_rule(member, ell) - member.exact_integral) for ell in ells]
    slope = np.polyfit(np.log([ell**spec.d for ell in ells]), np.log(errors), 1)[0]
    assert slope == pytest.approx(-spec.gamma, abs=0.15)


@pytest.mark.parametrize("params", [(1, 0, 1.0), (2, 0, 1.0), (1, 1, 0.5), (2, 1, 0.5)])
def test_walk_block_size_leaves_every_result_bit_identical(monkeypatch, params):
    # Every grid is larger than one chunk, so each walk crosses a chunk
    # edge and ends on a partial block.
    spec = make_spec(*params)
    f = suite_member(spec, "multiscale" if spec.k == 0 else "quadratic")
    ell, probe_cells = {1: (CHUNK + 4097, CHUNK // 8 + 1), 2: (520, 65)}[spec.d]

    def results():
        ledger = ResourceLedger()
        p = interpolate(f, CHUNK + 5000, ledger)
        assert p.n_points > CHUNK
        sums = (midpoint_rule(f, ell, ledger), probe_sup(f, probe_cells), p.exact_integral)
        assert ledger.classical_evals == p.n_points + ell**spec.d
        return [x.hex() for x in sums], p.node_values.tobytes()

    default = results()
    for block in (CHUNK, 777):
        monkeypatch.setattr(quadrature, "BLOCK", block)
        assert results() == default


@pytest.mark.parametrize("d", [1, 2, 3])
def test_walk_hands_the_evaluator_a_block_of_coordinates(d):
    # BLOCK counts coordinates: d = 2 keeps its 4096-point blocks.
    assert quadrature.BLOCK // 2 == 4096
    block = quadrature.BLOCK // d
    sizes = []

    def values(idx):
        sizes.append(idx.size)
        return idx.astype(float)

    n = CHUNK + 5
    walked = np.concatenate(list(quadrature.walk(values, n, d)))
    assert walked.tobytes() == np.arange(n, dtype=float).tobytes()
    expected = []
    for start in range(0, n, CHUNK):
        size = min(CHUNK, n - start)
        expected += [block] * (size // block) + ([size % block] if size % block else [])
    assert sizes == expected
    assert (d == 3) == (CHUNK % block != 0)


@pytest.mark.parametrize("d", [1, 3])
def test_midpoint_and_mc_results_do_not_depend_on_the_block(monkeypatch, d):
    # Both sums cross a chunk edge; at d = 3 the grid is read from tables.
    f = suite_member(make_spec(d, 0, 1.0), "multiscale")
    ell = {1: CHUNK + 4097, 3: 65}[d]
    samples = CHUNK + 777

    def results():
        ledger = ResourceLedger()
        sums = [
            midpoint_rule(f, ell, ledger),
            integrate_mc(f, samples, np.random.default_rng(4), ledger=ledger).estimate,
            integrate_mc(f, samples, np.random.default_rng(5), variance_reduced=True).estimate,
        ]
        return [x.hex() for x in sums], ledger.classical_evals

    default = results()
    for block in (1 << 12, 777, 3 * CHUNK):
        monkeypatch.setattr(quadrature, "BLOCK", block)
        assert results() == default


@pytest.mark.parametrize("params", [(1, 1, 0.5), (2, 1, 0.5), (2, 2, 0.5)])
def test_node_points_are_the_evaluated_nodes(params):
    f = suite_member(make_spec(*params), "quadratic")
    p = interpolate(f, CHUNK + 5000)
    values = np.asarray(f.evaluator(p.node_points()), dtype=float)
    assert values.tobytes() == p.node_values.ravel().tobytes()


@pytest.mark.parametrize("d", [1, 2, 3])
def test_piecewise_constant_evaluate_matches_the_vandermonde_path_bitwise(d):
    # The general evaluation with the k = 0 basis (all ones) as reference.
    ell = {1: 37, 2: 9, 3: 5}[d]
    rng = np.random.default_rng(d)
    node_values = rng.normal(size=(ell**d, 1))
    node_values[::7] = -0.0
    p = PiecewiseInterpolant(make_spec(d, 0, 1), ell, node_values)
    points = np.vstack([rng.random((4000, d)), np.eye(d), np.ones((1, d)), np.zeros((1, d))])
    points[:50] = np.round(points[:50] * ell) / ell
    cells = np.minimum((points * ell).astype(int), ell - 1)
    tau = points * ell - cells
    flat_cell = np.ravel_multi_index(tuple(cells.T), (ell,) * d)
    vinv = np.linalg.inv(np.vander([0.5], 1, increasing=True))
    basis = None
    for axis in range(d):
        axis_basis = np.vander(tau[:, axis], 1, increasing=True) @ vinv
        basis = axis_basis if basis is None else (
            basis[:, :, None] * axis_basis[:, None, :]).reshape(len(points), -1)
    expected = (node_values[flat_cell] * basis).sum(axis=1)
    assert p.evaluate(points).tobytes() == expected.tobytes()


def test_midpoint_rule_refuses_a_cell_count_beyond_any_array_before_evaluating():
    def evaluator(points):
        raise AssertionError("evaluated before the size check")

    f = fn(evaluator, spec=make_spec(2, 0, 1.0))
    with pytest.raises(OverflowError, match="cell count"):
        midpoint_rule(f, 2**32, ResourceLedger())


def _cell_midpoints_former(indices, ell, d):
    # The per-axis remainder and quotient as written before the divmod.
    pts = np.empty((indices.size, d))
    rem = indices
    for axis in range(d - 1, -1, -1):
        pts[:, axis] = (rem % ell + 0.5) / ell
        rem = rem // ell
    return pts


@pytest.mark.parametrize("d, ell", [(1, 3), (1, 2**40 + 7), (2, 5), (2, 2**20 + 3), (3, 7), (3, 10**4 + 1)])
def test_cell_midpoints_match_the_former_formula_bitwise(d, ell):
    # Coin grids reach N of about 3.4e10, so indices run up to about 2**40.
    n = ell**d
    rng = np.random.default_rng(d)
    indices = np.unique(np.concatenate([
        np.arange(min(n, 4096)),
        np.arange(max(0, n - 4096), n),
        rng.integers(0, n, 4096),
    ]))
    got = Grid(ell, d).points(indices)
    assert got.shape == (indices.size, d)
    assert got.tobytes() == _cell_midpoints_former(indices, ell, d).tobytes()


# Cells per axis for the k = 0 projections compared with the midpoint rule:
# every count up to 150 at d = 1 and up to 40 at d = 2, then a spread up to
# the one-chunk limit, CHUNK points.
K0_CELLS = {
    1: [*range(1, 151), 997, 4099, 65_537, CHUNK - 1, CHUNK],
    2: [*range(1, 41), 97, 255, 333, 511, 512],
}


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("name", [raw.name for raw in holder._raw_suite(make_spec(1, 0, 1.0))])
def test_piecewise_constant_integral_is_the_midpoint_rule_bitwise(d, name):
    # At k = 0 the node of a cell is its midpoint, so a projection onto ell**d
    # cells integrates to the midpoint rule with ell cells per axis, the same
    # doubles summed in the same order.
    f = suite_member(make_spec(d, 0, 1.0), name)
    moved = [ell for ell in K0_CELLS[d] if interpolate(f, ell**d).exact_integral != midpoint_rule(f, ell)]
    assert not moved, f"the projection's integral differs from the midpoint rule at ell = {moved}"


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("k", [0, 1, 2])
def test_node_points_are_the_fine_grid_midpoints_cell_major(d, k):
    ell, m = {1: 11, 2: 6, 3: 4}[d], k + 1
    # The fine position along each axis of every cell's every node, cells in
    # C order and inside each cell its nodes in C order.
    cells = np.indices((ell,) * d).reshape(d, -1, 1)
    nodes = np.indices((m,) * d).reshape(d, 1, -1)
    fine = (cells * m + nodes).reshape(d, -1)
    cell_major = np.ravel_multi_index(tuple(fine), (m * ell,) * d)
    grid = Grid(m * ell, d)
    expected = grid.points(cell_major)
    p = PiecewiseInterpolant(make_spec(d, k, 0.5), ell, np.zeros((ell**d, m**d)))
    assert p.node_points().tobytes() == expected.tobytes()
    # The interpolant's values regroup the walked grid in place wherever
    # no node moves: one node per cell or one axis.
    walked = np.arange(grid.size, dtype=float)
    regrouped = quadrature._cell_major(walked, ell, k, d)
    assert regrouped.shape == (ell**d, m**d)
    assert regrouped.ravel().tolist() == cell_major.tolist()
    assert np.shares_memory(regrouped, walked) == (k == 0 or d == 1)
