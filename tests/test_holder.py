"""Holder classes: specs, benchmark suite, membership, fooling family."""

import numpy as np
import pytest

from qintlab import holder
from qintlab.holder import test_suite as benchmark_suite
from qintlab.holder import (
    HolderFunction,
    adversarial_signs,
    fooling_family,
    make_spec,
    multiscale_function,
    suite_member,
    verify_membership,
)
from qintlab.quadrature import midpoint_rule


def test_make_spec_gamma():
    assert make_spec(1, 0, 1).gamma == 1.0
    assert make_spec(2, 1, 1).gamma == 1.0
    assert make_spec(4, 0, 0.5).gamma == 0.125


def test_make_spec_validation():
    with pytest.raises(ValueError):
        make_spec(1, 0, 0.0)
    with pytest.raises(ValueError):
        make_spec(1, 0, 1.5)
    with pytest.raises(ValueError):
        make_spec(0, 0, 1.0)
    with pytest.raises(ValueError):
        make_spec(1, -1, 1.0)


def test_function_counts_evaluations():
    from qintlab.ledger import ResourceLedger

    f = HolderFunction(lambda p: p[:, 0], make_spec(1, 0, 1))
    ledger = ResourceLedger()
    f(np.linspace(0, 1, 17).reshape(-1, 1), ledger)
    assert ledger.classical_evals == 17


def test_function_dimension_check():
    f = HolderFunction(lambda p: p[:, 0], make_spec(2, 0, 1))
    with pytest.raises(ValueError):
        f(np.zeros((3, 1)))


@pytest.mark.parametrize("params", [(1, 0, 1.0), (2, 0, 1.0), (1, 1, 1.0), (3, 0, 1.0), (2, 1, 0.5)])
def test_suite_members_have_integrals_and_pass_membership(params):
    spec = make_spec(*params)
    members = benchmark_suite(spec)
    assert len(members) >= 5
    for member in members:
        assert member.exact_integral is not None
        resolution = 64 if spec.d <= 3 else None
        assert verify_membership(member, resolution=resolution).passed, member.name


@pytest.mark.parametrize("params", [(1, 0, 1.0), (2, 0, 0.5), (1, 1, 1.0)])
def test_suite_member_measures_only_the_named_member(params, monkeypatch):
    spec = make_spec(*params)
    points = np.random.default_rng(0).random((200, spec.d))
    measured = []
    original = holder.verify_membership
    monkeypatch.setattr(
        holder, "verify_membership", lambda f, res=None: measured.append(f.name) or original(f, res)
    )
    for member in benchmark_suite(spec):
        measured.clear()
        alone = suite_member(spec, member.name)
        assert measured == [member.name]
        assert alone.exact_integral == member.exact_integral
        assert alone(points).tobytes() == member(points).tobytes()
    with pytest.raises(KeyError):
        suite_member(spec, "no-such-member")


@pytest.mark.parametrize("params", [(1, 0, 1.0), (2, 0, 1.0), (1, 1, 1.0), (1, 0, 0.5)])
def test_suite_exact_integrals_against_fine_quadrature(params):
    # Independent check of every closed form: a fine, scale-aligned midpoint
    # rule must land on the stated integral.
    spec = make_spec(*params)
    ell = 4**6 if spec.d == 1 else 4**3 * 2
    for member in benchmark_suite(spec):
        brute = midpoint_rule(member, ell)
        # the rough members converge at the class rate, so the brute rule's
        # own error scales as ell**-alpha
        tol = 1e-5 if spec.k > 0 else max(5e-4, 3.0 * float(ell) ** -spec.alpha / 4)
        assert brute == pytest.approx(member.exact_integral, abs=tol), member.name


def test_membership_examples_identity_and_steep_line():
    spec = make_spec(1, 0, 1)
    identity = HolderFunction(lambda p: p[:, 0], spec)
    assert verify_membership(identity).passed
    steep = HolderFunction(lambda p: 2 * p[:, 0], spec)
    report = verify_membership(steep)
    assert not report.passed
    assert report.worst_quotient == pytest.approx(2.0, rel=1e-6)
    assert report.witness is not None


def test_membership_kink_passes_k0_fails_k1():
    kink_eval = lambda p: np.abs(p[:, 0] - 0.5)
    assert verify_membership(HolderFunction(kink_eval, make_spec(1, 0, 1))).passed
    report = verify_membership(HolderFunction(kink_eval, make_spec(1, 1, 1)))
    assert not report.passed


def test_membership_catches_unbounded_sup():
    f = HolderFunction(lambda p: np.full(len(p), 1.5), make_spec(1, 0, 1))
    assert not verify_membership(f).passed


def test_membership_rejects_non_finite_values():
    half_nan = HolderFunction(lambda p: np.where(p[:, 0] < 0.5, np.nan, 0.0), make_spec(1, 0, 1), name="half")
    with pytest.raises(ValueError, match="half is not finite on the measurement grid"):
        verify_membership(half_nan)


def test_fooling_example_geometry():
    spec = make_spec(1, 0, 1)
    inst = fooling_family(spec, 4, np.ones(4))
    assert inst.height == pytest.approx(1 / 8)
    assert inst.single_bump_integral == pytest.approx(1 / 64)
    assert inst.exact_integral == pytest.approx(1 / 16)


def test_fooling_zero_and_cancelling_signs():
    spec = make_spec(1, 0, 1)
    assert fooling_family(spec, 4, np.zeros(4)).exact_integral == 0.0
    assert fooling_family(spec, 4, [1, -1, 1, -1]).exact_integral == 0.0


def test_fooling_integral_linear_in_signs():
    spec = make_spec(2, 0, 1)
    rng = np.random.default_rng(4)
    lam = rng.uniform(-0.5, 0.5, size=16)
    mu = rng.uniform(-0.5, 0.5, size=16)
    total = fooling_family(spec, 16, lam + mu).exact_integral
    parts = fooling_family(spec, 16, lam).exact_integral + fooling_family(spec, 16, mu).exact_integral
    assert total == pytest.approx(parts, abs=1e-15)


def test_fooling_validation():
    spec = make_spec(2, 0, 1)
    with pytest.raises(ValueError):
        fooling_family(spec, 5, np.ones(5))  # not a perfect square
    with pytest.raises(ValueError):
        fooling_family(spec, 4, [1, 1, 1, 2])  # weight out of range


@pytest.mark.parametrize("params", [(1, 0, 1.0), (2, 0, 1.0), (1, 1, 1.0), (1, 2, 0.5)])
def test_single_bump_integral_scaling_is_exact_power_law(params):
    spec = make_spec(*params)
    ells = [2, 4, 8, 16]
    values = [
        fooling_family(spec, ell**spec.d, np.ones(ell**spec.d)).single_bump_integral
        for ell in ells
    ]
    slope = np.polyfit(np.log([ell**spec.d for ell in ells]), np.log(values), 1)[0]
    assert slope == pytest.approx(-(1 + spec.gamma), abs=1e-9)


@pytest.mark.parametrize(
    "params,n_bumps",
    [((1, 0, 1.0), 16), ((2, 0, 1.0), 16), ((1, 1, 1.0), 8), ((2, 1, 0.5), 9)],
)
def test_fooling_instances_stay_in_class(params, n_bumps):
    spec = make_spec(*params)
    for signs in (np.ones(n_bumps), np.array([(-1.0) ** i for i in range(n_bumps)])):
        instance = fooling_family(spec, n_bumps, signs)
        assert verify_membership(instance.as_function()).passed


def test_bump_supports_are_disjoint():
    spec = make_spec(1, 0, 1)
    base = fooling_family(spec, 4, np.array([1.0, 1.0, 0.0, -1.0])).as_function()
    tweaked = fooling_family(spec, 4, np.array([1.0, -0.5, 0.0, -1.0])).as_function()
    points = np.linspace(0.001, 0.999, 400).reshape(-1, 1)
    inside_second = (points[:, 0] >= 0.25) & (points[:, 0] < 0.5)
    diff = base(points) - tweaked(points)
    assert np.all(diff[~inside_second] == 0.0)
    assert np.any(diff[inside_second] != 0.0)


def test_fooling_integral_against_quadrature():
    spec = make_spec(2, 0, 1)
    rng = np.random.default_rng(12)
    inst = fooling_family(spec, 16, rng.uniform(-1, 1, 16))
    brute = midpoint_rule(inst.as_function(), 256)
    assert brute == pytest.approx(inst.exact_integral, abs=1e-6)


def test_adversarial_signs_cover_unsampled_cells():
    lambdas, unsampled = adversarial_signs(1, 16, 5)
    assert unsampled >= 16 - 5
    assert set(np.unique(lambdas)) <= {0.0, 1.0}
    lambdas2, unsampled2 = adversarial_signs(2, 4, 3)
    assert unsampled2 >= 16 - 9


def test_multiscale_requires_k0():
    with pytest.raises(ValueError):
        multiscale_function(make_spec(1, 1, 1.0))


def test_multiscale_bases_are_distinct_functions():
    spec = make_spec(1, 0, 1)
    f4 = suite_member(spec, "multiscale")
    f3 = suite_member(spec, "multiscale3")
    points = np.linspace(0.01, 0.99, 101).reshape(-1, 1)
    assert not np.allclose(f4(points), f3(points))


def _multiscale_axis_per_point(t, alpha, base):
    # The evaluator as it was before its powers were tabulated per band:
    # both powers of j raised once per point.
    levels = {4: 8, 3: 9}[base]
    band = np.minimum((t * levels).astype(int), levels - 1)
    j = band + 2
    tj = t * float(base) ** j
    fine = (-1.0) ** j * float(base) ** (-j * alpha) * np.abs(tj - np.round(tj))
    coarse = 2.0 ** (1.0 - 2.0 * alpha) * np.abs(2.0 * t - np.round(2.0 * t))
    return coarse + fine


@pytest.mark.parametrize("base", [3, 4])
@pytest.mark.parametrize("alpha", [1.0, 0.5, 0.3])
def test_multiscale_band_tables_match_the_per_point_formula_bitwise(alpha, base):
    # Band edges of both layouts (multiples of 1/8 and 1/9) and their float
    # neighbours, t = 1.0, which the band lookup clips into the last band, a
    # midpoint grid and random points.
    edges = np.arange(73) / 72
    t = np.concatenate([
        np.random.default_rng(5).random(2**16),
        edges,
        np.nextafter(edges, 0.0),
        np.nextafter(edges, 1.0)[:-1],
        (np.arange(4096) + 0.5) / 4096,
    ])
    f = multiscale_function(make_spec(1, 0, alpha), base)
    expected = np.zeros(t.size)
    expected += _multiscale_axis_per_point(t, alpha, base)
    assert f.evaluator(t.reshape(-1, 1)).tobytes() == expected.tobytes()


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("base", [3, 4])
def test_multiscale_evaluator_matches_the_per_column_loop_bitwise(d, base):
    # One profile call per column, summed in axis order and then divided,
    # as the evaluator did before it flattened the coordinates.
    points = np.random.default_rng(d).random((5000, d))
    points[:72] = np.arange(72)[:, None] / 72
    expected = np.zeros(points.shape[0])
    for axis in range(d):
        expected += _multiscale_axis_per_point(points[:, axis], 0.5, base)
    expected = expected / d
    f = multiscale_function(make_spec(d, 0, 0.5), base)
    assert f.evaluator(points).tobytes() == expected.tobytes()


@pytest.mark.parametrize("d", [1, 2, 3])
def test_axis_mean_is_the_mean_onto_zeros_and_keeps_its_inputs(d):
    rng = np.random.default_rng(d)
    columns = [rng.normal(size=300) for _ in range(d)]
    for column in columns:
        column[::5] = -0.0
    kept = [column.copy() for column in columns]
    expected = np.zeros(300)
    for column in columns:
        expected += column
    expected /= d
    mean = holder._axis_mean(columns)
    assert mean.tobytes() == expected.tobytes()
    assert not np.signbit(mean[::5]).any()
    mean += 1.0
    assert all(c.tobytes() == k.tobytes() for c, k in zip(columns, kept))


def _fooling_former(instance, points):
    # The fooling evaluator with its cell lookup written inline, as before
    # the lookup moved onto Grid.
    ell, d = instance.cells_per_axis, instance.spec.d
    cells = np.minimum((points * ell).astype(int), ell - 1)
    tau = points * ell - cells
    flat = np.ravel_multi_index(tuple(cells.T), (ell,) * d)
    if instance.profile == "hat":
        shape = holder._hat_profile(tau)
    else:
        shape = holder._poly_profile(tau, instance.spec.k)
    return instance.lambdas[flat] * instance.height * np.prod(shape, axis=1)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("k", [0, 1])
def test_fooling_function_matches_the_former_cell_lookup_bitwise(d, k):
    rng = np.random.default_rng(10 * d + k)
    ell = {1: 9, 2: 5, 3: 3}[d]
    instance = fooling_family(make_spec(d, k, 0.6), ell**d, rng.uniform(-1.0, 1.0, ell**d))
    points = rng.random((3000, d))
    # Coordinates exactly 1.0, on cell edges and at 0.0.
    points[:40, 0] = 1.0
    points[20:60, -1] = 1.0
    points[60:100] = rng.integers(0, ell + 1, (40, d)) / ell
    points[100:110] = 0.0
    got = instance.as_function()(points)
    assert got.tobytes() == _fooling_former(instance, points).tobytes()


def _adversarial_signs_former(d, cells_per_axis, quad_per_axis):
    nodes = (2 * np.arange(quad_per_axis) + 1) / (2 * quad_per_axis)
    hit_axis = np.unique(np.minimum((nodes * cells_per_axis).astype(int), cells_per_axis - 1))
    lambdas = np.ones((cells_per_axis,) * d)
    lambdas[np.ix_(*([hit_axis] * d))] = 0.0
    flat = lambdas.ravel()
    return flat, int(flat.sum())


@pytest.mark.parametrize("d, cells, quad, on_edges", [
    # Every node on a cell edge: 4 cells / 2 nodes, 6 cells / 3 nodes.
    (1, 4, 2, 2), (2, 4, 2, 2), (1, 6, 3, 3), (3, 6, 3, 3),
    # Only the middle node on an edge.
    (1, 16, 5, 1), (3, 4, 3, 1),
    # No node on an edge, with fewer and with more nodes than cells.
    (2, 7, 3, 0), (2, 5, 7, 0),
])
def test_adversarial_signs_match_the_former_lookup(d, cells, quad, on_edges):
    nodes = (2 * np.arange(quad) + 1) / (2 * quad)
    assert np.count_nonzero(nodes * cells == np.round(nodes * cells)) == on_edges
    lambdas, unsampled = adversarial_signs(d, cells, quad)
    former, former_unsampled = _adversarial_signs_former(d, cells, quad)
    assert lambdas.tobytes() == former.tobytes() and unsampled == former_unsampled


def test_membership_witness_is_a_midpoint_of_the_sampling_grid():
    # The witness as written before it read the grid's axis: (i + 0.5) / resolution.
    steep = HolderFunction(lambda p: 3.0 * p[:, 0] * p[:, 1], make_spec(2, 0, 1.0))
    report = verify_membership(steep, resolution=16)
    assert not report.passed
    x, y = report.witness
    cells = [round(c * 16 - 0.5) for c in x]
    assert x == tuple((i + 0.5) / 16 for i in cells)
    assert all(isinstance(c, np.float64) for c in x + y)
