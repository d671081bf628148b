"""The tensor grid and the per-axis evaluation path of HolderFunction.on_grid."""

import math

import numpy as np
import pytest

from qintlab import amp_est, holder, integrators, quadrature
from qintlab.grid import Grid
from qintlab.holder import HolderFunction, make_spec, suite_member
from qintlab.integrators import integrate_coin, plan_coin, plan_quantum
from qintlab.ledger import ResourceLedger
from qintlab.quadrature import CHUNK, interpolate, midpoint_rule, probe_sup, residual

def _indices(n, seed):
    """First and last positions, then unsorted draws with repeats, as coin selects them."""
    rng = np.random.default_rng(seed)
    return np.concatenate([np.arange(min(n, 300)), np.arange(max(0, n - 300), n), rng.integers(0, n, 3000)])


def _grids(d):
    """A partition and the interpolation node grids on it at k = 1 and 2."""
    ell = {1: 97, 2: 23, 3: 7}[d]
    return [Grid((k + 1) * ell, d) for k in (0, 1, 2)]


@pytest.mark.parametrize("d", [1, 2, 3])
def test_points_are_the_axis_coordinates_at_the_split_positions(d):
    for grid in _grids(d):
        idx = _indices(grid.size, d)
        columns = grid.split(idx)
        axis = grid.axis()
        assert axis.size == grid.ell and len(columns) == d
        expected = np.stack([axis[column] for column in columns], axis=1)
        assert grid.points(idx).tobytes() == expected.tobytes()


def test_cell_lookup_clips_one_into_the_last_cell():
    grid = Grid(6, 2)
    t = np.array([[0.0, 1.0], [1 / 6, 5 / 6], [np.nextafter(0.5, 0.0), 0.5], [0.999, 1.0]])
    cells = grid.cell_of(t)
    assert cells.tolist() == [[0, 5], [1, 5], [2, 3], [5, 5]]
    assert grid.cell_index(cells.T).tolist() == [5, 11, 15, 35]
    # The lookup inverts the grid: every midpoint lies in its own cell.
    idx = np.arange(grid.size)
    assert grid.cell_index(grid.cell_of(grid.points(idx)).T).tolist() == idx.tolist()


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("ell", [1, 2, 7])
def test_cell_index_is_the_c_order_ravel_of_the_looked_up_cells(d, ell):
    # Every cell edge, 0.0 and 1.0 among them, and the double just below each
    # inner edge and 1.0, in every combination across the axes.
    edges = np.arange(ell + 1) / ell
    axis = np.unique(np.concatenate([edges, np.nextafter(edges[1:], 0.0)]))
    points = np.stack(np.meshgrid(*[axis] * d, indexing="ij"), axis=-1).reshape(-1, d)
    grid = Grid(ell, d)
    cells = grid.cell_of(points)
    expected = np.ravel_multi_index(tuple(cells.T), (ell,) * d)
    assert grid.cell_index(cells.T).tolist() == expected.tolist()
    assert grid.cell_index(list(cells.T)).tolist() == expected.tolist()


def test_sub_cell_midpoints_are_one_cell_grid_axes_bitwise():
    # (2i + 1) / (2n), the node and midpoint axes as written before they
    # moved onto Grid, is (i + 0.5) / n rounded once.
    for n in [*range(1, 3000), 4096, 65536, 100003, 2**20]:
        former = (2 * np.arange(n) + 1) / (2 * n)
        assert Grid(n, 1).axis().tobytes() == former.tobytes(), n


def test_grid_size_and_overflow():
    assert Grid(5, 3).size == 125
    assert Grid(10, 2).size == 100
    with pytest.raises(OverflowError, match="cell count 4294967296\\^2"):
        Grid(2**32, 2)

    def evaluator(points):
        raise AssertionError("evaluated before the size check")

    # 2**32 cells per axis at k = 1 put 2**33 nodes on each axis.
    f = HolderFunction(evaluator, make_spec(2, 1, 0.5))
    with pytest.raises(OverflowError, match="cell count 8589934592\\^2"):
        interpolate(f, 2**66)


def test_measurement_grid_matches_the_former_meshgrid_bitwise():
    # The measurement grid as built before it moved onto Grid.
    d, resolution = 3, 16
    axis = (np.arange(resolution) + 0.5) / resolution
    mesh = np.meshgrid(*([axis] * d), indexing="ij")
    former = np.stack([m.ravel() for m in mesh], axis=1)
    seen = []
    holder._grid_values(lambda pts: seen.append(pts) or pts.sum(axis=1), d, resolution)
    assert seen[0].tobytes() == former.tobytes()


# The suite's axis-mean members read their profile table at d >= 2; the
# product members have no axis form, so their grids evaluate every point.
MEMBERS = [(d, 0, 1.0, name) for d in (1, 2, 3) for name in ("multiscale", "multiscale3", "product", "cos-product")]
MEMBERS += [(d, 1, 0.5, name) for d in (1, 2, 3) for name in ("product", "cos-product")]


def test_every_separable_member_declares_its_axis_form():
    # The suite's one per-axis form is the axis mean.
    tabulated = set()
    for d in (1, 2, 3):
        for k, alpha in ((0, 1.0), (1, 0.5)):
            tabulated |= {raw.name for raw in holder._raw_suite(make_spec(d, k, alpha)) if raw.profile}
    assert tabulated == {"multiscale", "multiscale3"}


@pytest.mark.parametrize("d, k, alpha, name", MEMBERS)
def test_on_grid_equals_the_evaluator_at_the_grid_points_bitwise(d, k, alpha, name):
    f = suite_member(make_spec(d, k, alpha), name)
    assert (f.profile is not None) == name.startswith("multiscale")
    for grid in _grids(d):
        idx = _indices(grid.size, k + d)
        expected = f(grid.points(idx))
        ledger = ResourceLedger()
        assert f.on_grid(grid)(idx, ledger).tobytes() == expected.tobytes()
        assert ledger.classical_evals == idx.size


@pytest.mark.parametrize("d, alpha, name", [(d, a, n) for d, k, a, n in MEMBERS if k == 0])
def test_residual_on_grid_equals_its_evaluator_bitwise(d, alpha, name):
    f = suite_member(make_spec(d, 0, alpha), name)
    p = interpolate(f, {1: 50, 2: 100, 3: 130}[d])
    g = residual(f, p)
    assert (g.profile is not None) == (f.profile is not None)
    # Coupled grids finer than the partition, aligned with it or not.
    for ell in (p.ell * 4, p.ell * 3 + 2, p.ell + 1):
        grid = Grid(ell, d)
        idx = _indices(grid.size, ell)
        expected = g(grid.points(idx))
        assert g.on_grid(grid)(idx).tobytes() == expected.tobytes()


def _plain(f):
    """f without its axis form: every grid point is evaluated."""
    return HolderFunction(f.evaluator, f.spec, exact_integral=f.exact_integral, name=f.name)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("name", ["multiscale", "multiscale3"])
def test_axis_mean_residual_is_f_minus_pf_to_a_few_ulps(d, name):
    # The axis-mean residual averages per-axis differences; f - Pf differences
    # two means.  Both are the same function, up to rounding.
    f = suite_member(make_spec(d, 0, 1.0), name)
    p = interpolate(f, {2: 100, 3: 130}[d])
    g, generic = residual(f, p), residual(_plain(f), p)
    assert g.profile is not None and generic.profile is None
    grid = Grid(p.ell * 3 + 2, d)
    idx = _indices(grid.size, d)
    for points in (np.random.default_rng(d).random((5000, d)), grid.points(idx)):
        ulp = np.finfo(float).eps * np.abs(f(points)).max()
        assert np.abs(g(points) - generic(points)).max() <= 4 * ulp
    assert g.on_grid(grid)(idx).tobytes() == g(grid.points(idx)).tobytes()


def test_a_function_is_given_by_an_evaluator_or_by_a_profile():
    spec = make_spec(1, 0, 1.0)
    with pytest.raises(ValueError, match="either an evaluator or an axis-mean profile"):
        HolderFunction(None, spec)
    with pytest.raises(ValueError, match="either an evaluator or an axis-mean profile"):
        HolderFunction(lambda pts: pts[:, 0], spec, profile=lambda t: t)


def test_residual_above_k0_keeps_the_evaluator():
    f = HolderFunction(None, make_spec(2, 1, 0.5), name="square-mean", profile=lambda t: t * t)
    p = interpolate(f, 64)
    g = residual(f, p)
    assert f.profile is not None and g.profile is None
    points = np.random.default_rng(1).random((1000, 2))
    assert g(points).tobytes() == (f(points) - p.evaluate(points)).tobytes()


@pytest.mark.parametrize("d, ell, name", [(2, 520, "multiscale"), (3, 67, "multiscale3")])
def test_rules_give_the_same_results_with_and_without_tables(d, ell, name):
    # Grids larger than one chunk, so each walk crosses a chunk edge.
    f = suite_member(make_spec(d, 0, 1.0), name)
    plain = _plain(f)
    assert ell**d > CHUNK and f.profile is not None
    ledgers = ResourceLedger(), ResourceLedger()
    assert midpoint_rule(f, ell, ledgers[0]).hex() == midpoint_rule(plain, ell, ledgers[1]).hex()
    fast, slow = interpolate(f, CHUNK + 5000, ledgers[0]), interpolate(plain, CHUNK + 5000, ledgers[1])
    assert fast.node_values.tobytes() == slow.node_values.tobytes()
    assert ledgers[0].classical_evals == ledgers[1].classical_evals == ell**d + fast.n_points
    g = residual(f, fast)
    assert probe_sup(g, 40) == probe_sup(_plain(g), 40)


@pytest.mark.parametrize("method", ["coin", "quantum"])
def test_coupled_grid_plans_give_the_same_results_with_and_without_tables(method, monkeypatch):
    # The plans' residual read from its one table, then with its form dropped
    # so that every coupled-grid point is evaluated.
    f = suite_member(make_spec(2, 0, 1.0), "multiscale")
    build, eps1 = (plan_coin, 2**-5) if method == "coin" else (plan_quantum, 2**-6)
    fast = build(f, eps1)
    monkeypatch.setattr(integrators, "residual", lambda f, p: _plain(quadrature.residual(f, p)))
    slow = build(f, eps1)
    if method == "quantum":
        assert fast.parameters == slow.parameters
        assert fast.law.probs.tobytes() == slow.law.probs.tobytes()
        return
    for seed in range(3):
        a = integrate_coin(f, eps1, np.random.default_rng(seed), plan=fast)
        b = integrate_coin(f, eps1, np.random.default_rng(seed), plan=slow)
        assert a.estimate.hex() == b.estimate.hex()
        assert a.ledger.as_dict() == b.ledger.as_dict() and a.parameters == b.parameters


@pytest.fixture
def profile_calls(monkeypatch):
    """Sizes of the arrays the multiscale profile is called on."""
    calls = []
    real = holder._multiscale_axis

    def counted(t, *args):
        calls.append(t.size)
        return real(t, *args)

    monkeypatch.setattr(holder, "_multiscale_axis", counted)
    return calls


def _evaluator_refused(points):
    raise AssertionError("a tabulated grid evaluated points")


def test_grid_rules_read_the_tables_and_never_the_points(profile_calls):
    f = suite_member(make_spec(2, 0, 1.0), "multiscale")
    f.evaluator = _evaluator_refused
    del profile_calls[:]
    ledger = ResourceLedger()
    midpoint_rule(f, 300, ledger)
    assert profile_calls == [300]
    p = interpolate(f, 1000, ledger)
    assert profile_calls == [300, p.ell]
    assert ledger.classical_evals == 300**2 + p.n_points
    probe_sup(residual(f, p), 10)
    # The residual's node values, then the probe grid's table.
    assert profile_calls == [300, p.ell, p.ell, 80]


def test_one_dimensional_grids_evaluate_the_points(profile_calls):
    # Every coordinate is distinct at d = 1: the evaluator runs block by block.
    f = suite_member(make_spec(1, 0, 1.0), "multiscale")
    del profile_calls[:]
    midpoint_rule(f, quadrature.BLOCK + 904)
    assert profile_calls == [quadrature.BLOCK, 904]


def test_on_grid_builds_the_tables_once_the_calls_have_read_as_many_points(profile_calls):
    f = suite_member(make_spec(2, 0, 1.0), "multiscale")
    grid = Grid(500, 2)
    idx = _indices(grid.size, 2)[-1000:]
    expected = f(grid.points(idx))
    del profile_calls[:]
    values, ledger = f.on_grid(grid), ResourceLedger()
    # The tables hold 2 * 500 coordinates: the first calls, 999 points in all,
    # evaluate them; the call that reaches 1000 reads builds the tables.
    for lo, hi in ((0, 500), (500, 999), (999, 1000), (0, 1000)):
        assert values(idx[lo:hi], ledger).tobytes() == expected[lo:hi].tobytes()
    assert profile_calls == [1000, 998, 500]
    assert ledger.classical_evals == 2000


def test_a_coin_row_builds_its_tables_once(profile_calls):
    f = suite_member(make_spec(2, 0, 1.0), "multiscale")
    eps1 = 2**-5
    del profile_calls[:]
    plan = plan_coin(f, eps1)
    # The interpolation nodes' table and the residual's node values; the
    # coupled grid's table waits for the draws.
    ell = math.isqrt(plan.parameters["n_points"])
    assert profile_calls == [ell, ell]
    draws, ell_n = plan.parameters["draws"], plan.parameters["ell_N"]
    trials = -(-2 * ell_n // draws)
    assert trials == 5
    for seed in range(3 * trials):
        integrate_coin(f, eps1, np.random.default_rng(seed), plan=plan)
    # Trials before the draws reach 2 * ell_N evaluate their points, then
    # the residual's one table serves every later trial.
    assert profile_calls[2:] == [2 * draws] * (trials - 1) + [ell_n]


def test_a_few_coin_draws_on_a_fine_grid_build_no_tables(monkeypatch):
    # At alpha = 0.3 the coupled grid has about 1.6e8 coordinates per axis,
    # far more than a handful of trials draw: tables would take gigabytes.
    f = suite_member(make_spec(2, 0, 0.3), "multiscale")
    eps1 = 2**-6
    plan = plan_coin(f, eps1)
    assert plan.parameters["ell_N"] > 10**8 and plan.parameters["draws"] == 4096
    real = Grid.axis

    def axis(grid):
        assert grid.ell < 10**6, "tabulated the coupled grid"
        return real(grid)

    monkeypatch.setattr(Grid, "axis", axis)
    for seed in range(3):
        result = integrate_coin(f, eps1, np.random.default_rng(seed), plan=plan)
        assert result.ledger.classical_evals == plan.parameters["n_points"] + 4096


@pytest.mark.parametrize("d", [1, 2, 3])
def test_product_members_keep_their_former_evaluators_bitwise(d):
    points = np.random.default_rng(d).random((5000, d))
    points[:72] = np.arange(72)[:, None] / 72
    points[72:80] = -0.0
    spec = make_spec(d, 0, 1.0)
    former = {"product": np.prod(points, axis=1), "cos-product": np.prod(np.cos(np.pi * points), axis=1)}
    for raw in holder._raw_suite(spec):
        if raw.name in former:
            assert raw.evaluator(points).tobytes() == former[raw.name].tobytes()


def test_quantum_plan_refuses_a_coupled_grid_above_the_stream_limit(monkeypatch):
    f = suite_member(make_spec(1, 0, 1.0), "multiscale")

    def stream(*args, **kwargs):
        raise AssertionError("streamed before the size check")

    monkeypatch.setattr(integrators, "_scaled_residual_amplitude", stream)
    monkeypatch.setattr(integrators, "MAX_STREAM", 1000)
    with pytest.raises(OverflowError, match="coupled grid node count 3609 "):
        plan_quantum(f, amp_est.error_bound(128))
