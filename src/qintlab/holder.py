"""Holder classes on the unit cube: specs, benchmark functions, hard instances.

A class is described by (d, k, alpha): d-variate functions bounded by one
whose order-k partial derivatives satisfy a Holder condition with exponent
alpha in the Euclidean norm.  The smoothness summary gamma = (k + alpha)/d
drives every convergence exponent in the lab.

Membership is verified by sampling, never proven: order-k finite-difference
derivative estimates on a uniform grid are compared pairwise within small
neighbourhoods, and the worst quotient must stay below 1 + tol.  Benchmark
functions are rescaled by their measured constant (never upward) so they sit
safely inside the class while keeping closed-form integrals.

The fooling family packs sign-weighted bumps with disjoint supports into a
uniform partition; any deterministic rule that samples fewer cells than
there are bumps must miss integral mass, which makes the family the lab's
hard-instance generator.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement
from typing import Callable

import numpy as np

from .grid import Grid
from .ledger import ResourceLedger

MEMBERSHIP_TOL = 0.05
_SUITE_MARGIN = 0.9

# Per-axis measurement resolutions keeping grids at desk scale.
_DEFAULT_RESOLUTION = {1: 256, 2: 64, 3: 16, 4: 8}


@dataclass(frozen=True)
class HolderClassSpec:
    """Class parameters (d, k, alpha) with gamma = (k + alpha) / d."""

    d: int
    k: int
    alpha: float

    def __post_init__(self):
        if self.d < 1:
            raise ValueError(f"dimension must be positive, got {self.d}")
        if self.k < 0:
            raise ValueError(f"smoothness order must be non-negative, got {self.k}")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"Holder exponent must lie in (0, 1], got {self.alpha}")

    @property
    def gamma(self) -> float:
        return (self.k + self.alpha) / self.d


def make_spec(d: int, k: int, alpha: float) -> HolderClassSpec:
    return HolderClassSpec(d=int(d), k=int(k), alpha=float(alpha))


def _axis_mean(columns: list[np.ndarray], scale: float = 1.0) -> np.ndarray:
    """The d columns summed in axis order onto zeros, divided by d, then
    multiplied by ``scale``; inputs are kept.

    Zeros plus the first column is that column plus 0.0, and dividing or
    multiplying by one changes nothing, so none of these is done as such.
    """
    acc = columns[0] + 0.0
    for column in columns[1:]:
        acc += column
    if len(columns) > 1:
        acc /= len(columns)
    if scale != 1.0:
        acc *= scale
    return acc


class HolderFunction:
    """An evaluable function on [0, 1]^d tagged with its class.

    ``evaluator`` maps an (npts, d) array to an (npts,) array.  Calling the
    function with a ledger charges one classical evaluation per point; the
    raw evaluator stays available for harness instrumentation that must not
    touch the cost accounting.

    An axis-mean function f(x) = scale * mean_i profile(x_i) is given by its
    form instead of an evaluator: ``profile``, an elementwise map that
    returns a new array, and ``scale``.  The evaluator is then derived from
    the form, and ``on_grid`` reads the function from one profile table,
    gathered along each grid axis, the same doubles bit for bit.
    """

    def __init__(
        self,
        evaluator: Callable[[np.ndarray], np.ndarray] | None,
        spec: HolderClassSpec,
        exact_integral: float | None = None,
        name: str = "",
        profile: Callable[[np.ndarray], np.ndarray] | None = None,
        scale: float = 1.0,
    ):
        if (evaluator is None) == (profile is None):
            raise ValueError("give either an evaluator or an axis-mean profile")
        self.evaluator = self._from_profile if evaluator is None else evaluator
        self.spec = spec
        self.exact_integral = exact_integral
        self.name = name
        self.profile = profile
        self.scale = scale

    def __call__(self, points: np.ndarray, ledger: ResourceLedger | None = None) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if points.shape[1] != self.spec.d:
            raise ValueError(f"points have dimension {points.shape[1]}, expected {self.spec.d}")
        if ledger is not None:
            ledger.classical_evals += points.shape[0]
        return np.asarray(self.evaluator(points), dtype=float)

    def _from_profile(self, points: np.ndarray) -> np.ndarray:
        # The profile runs once on all the coordinates of the points.
        per_axis = self.profile(points.reshape(-1)).reshape(points.shape)
        return _axis_mean([per_axis[:, axis] for axis in range(points.shape[1])], self.scale)

    def on_grid(self, grid: Grid) -> Callable:
        """``values(idx, ledger=None)``: the function at ``grid.points(idx)``.

        Each call charges ``ledger`` one classical evaluation per index.  With
        a profile and d >= 2, the calls evaluate the points until, with the
        current call, they have read as many as the table holds coordinates,
        d * ``grid.ell``; then ``profile(grid.axis())`` is tabulated,
        once, and every later call gathers from it along each axis.  A rule
        that walks the grid reaches that count within its first blocks; a
        few coin draws on a fine coupled grid never do, and never pay for a
        table larger than their reads.  At d = 1 every coordinate is
        distinct, so the table would be as large as the grid and the points
        are always evaluated.
        """
        if grid.d != self.spec.d:
            raise ValueError(f"grid has dimension {grid.d}, expected {self.spec.d}")
        if self.profile is None or grid.d < 2:
            return lambda idx, ledger=None: self(grid.points(idx), ledger)
        unread = grid.d * grid.ell
        table = None

        def values(idx: np.ndarray, ledger: ResourceLedger | None = None) -> np.ndarray:
            nonlocal unread, table
            if table is None:
                unread -= idx.size
                if unread > 0:
                    return self(grid.points(idx), ledger)
                table = self.profile(grid.axis())
            if ledger is not None:
                ledger.classical_evals += idx.size
            return _axis_mean([table.take(column) for column in grid.split(idx)], self.scale)

        return values

    def __repr__(self):
        return f"HolderFunction({self.name or 'anonymous'}, spec={self.spec})"


# ---------------------------------------------------------------------------
# Sampled membership verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MembershipReport:
    passed: bool
    sup_norm: float
    worst_quotient: float
    witness: tuple | None


def _grid_values(evaluator, d: int, resolution: int) -> np.ndarray:
    if resolution**d > 2**24:
        raise ValueError(f"measurement grid {resolution}^{d} too large")
    grid = Grid(resolution, d)
    points = grid.points(np.arange(grid.size))
    return np.asarray(evaluator(points), dtype=float).reshape((resolution,) * d)


def _derivative_arrays(values: np.ndarray, k: int, h: float) -> list[np.ndarray]:
    """Order-k finite-difference estimates of every order-k partial."""
    d = values.ndim
    if k == 0:
        return [values]
    arrays = []
    for combo in combinations_with_replacement(range(d), k):
        der = values
        for axis in combo:
            der = np.diff(der, axis=axis)
        arrays.append(der / h**k)
    return arrays


def _neighbor_offsets(d: int) -> list[tuple[int, ...]]:
    offsets: list[tuple[int, ...]] = []
    for axis in range(d):
        for step in (1, 2):
            o = [0] * d
            o[axis] = step
            offsets.append(tuple(o))
    for a, b in combinations(range(d), 2):
        o = [0] * d
        o[a] = 1
        o[b] = 1
        offsets.append(tuple(o))
    return offsets


def _worst_quotient(
    values: np.ndarray, spec: HolderClassSpec, resolution: int
) -> tuple[float, tuple | None]:
    h = 1.0 / resolution
    worst = 0.0
    witness = None
    for der in _derivative_arrays(values, spec.k, h):
        shape = der.shape
        for offset in _neighbor_offsets(spec.d):
            if any(shape[a] <= offset[a] for a in range(spec.d)):
                continue
            base = der[tuple(slice(0, shape[a] - offset[a]) for a in range(spec.d))]
            shifted = der[tuple(slice(offset[a], shape[a]) for a in range(spec.d))]
            dist = h * math.sqrt(sum(o * o for o in offset))
            quot = np.abs(shifted - base) / dist**spec.alpha
            local_max = float(quot.max())
            if local_max > worst:
                worst = local_max
                flat = int(np.argmax(quot))
                idx = np.unravel_index(flat, base.shape)
                x = tuple(Grid(resolution, spec.d).axis().take(idx))
                y = tuple(x[a] + offset[a] * h for a in range(spec.d))
                witness = (x, y)
    return worst, witness


def verify_membership(f: HolderFunction, resolution: int | None = None) -> MembershipReport:
    """Sampled check of the sup bound and the order-k Holder condition."""
    resolution = resolution or _DEFAULT_RESOLUTION.get(f.spec.d, 8)
    if resolution < 2:
        raise ValueError("need at least 2 grid points per axis")
    values = _grid_values(f.evaluator, f.spec.d, resolution)
    if not np.isfinite(values).all():
        raise ValueError(f"{f.name or 'function'} is not finite on the measurement grid")
    sup = float(np.abs(values).max())
    quotient, witness = _worst_quotient(values, f.spec, resolution)
    passed = sup <= 1.0 + 1e-9 and quotient <= 1.0 + MEMBERSHIP_TOL
    return MembershipReport(
        passed=passed,
        sup_norm=sup,
        worst_quotient=quotient,
        witness=None if passed else witness,
    )


# ---------------------------------------------------------------------------
# Benchmark suite
# ---------------------------------------------------------------------------


# Band count per supported scale base: band edges must be integer multiples
# of every hosted period, which ties the band count to the base.  The coarse
# wave always has period 1/2 so its kinks sit on quarter-grid points.
_MULTISCALE_LAYOUT = {4: 8, 3: 9}


def _multiscale_axis(t: np.ndarray, alpha: float, base: int, bands: Grid) -> np.ndarray:
    # Band b, cell b of ``bands``, hosts the triangle wave of period base**-(b+2)
    # at its alpha-scaled amplitude and with alternating sign, on top of a
    # global period-1/2 triangle.  Band edges and the coarse kinks sit on
    # integer multiples of every hosted period, so the profile is continuous,
    # its Holder quotient never accumulates across scales, and the signs
    # prevent fine-band integration errors from cancelling the active band.
    # Every point of band b has j = b + 2, so both powers of j are read from
    # per-band tables instead of being raised once per point.  The work runs
    # in place and drops the band indices once both tables are read, so at
    # most three arrays of t's size (all d coordinates) are alive at once.
    levels = bands.ell
    j = np.arange(2, levels + 2)
    scale = float(base) ** j
    amp = (-1.0) ** j * float(base) ** (-j * alpha)
    band = bands.cell_of(t)
    fine = scale.take(band)
    sign = amp.take(band)
    del band
    fine *= t
    rounded = np.rint(fine)
    fine -= rounded
    np.abs(fine, out=fine)
    fine *= sign
    coarse = np.multiply(t, 2.0, out=sign)
    np.rint(coarse, out=rounded)
    coarse -= rounded
    np.abs(coarse, out=coarse)
    coarse *= 2.0 ** (1.0 - 2.0 * alpha)
    coarse += fine
    return coarse


def _multiscale_axis_integral(alpha: float, base: int) -> float:
    levels = _MULTISCALE_LAYOUT[base]
    fine = sum((-1.0) ** j * float(base) ** (-j * alpha) * 0.25 for j in range(2, levels + 2))
    return 2.0 ** (1.0 - 2.0 * alpha) * 0.25 + fine / levels


def multiscale_function(spec: HolderClassSpec, base: int = 4) -> HolderFunction:
    """Axis-averaged triangle waves, one base**-j scale per band.

    Oscillates at period base**-j somewhere in the cube for every hosted j
    (plus a coarse component), so deterministic and sampling rules converge
    on it at the class-worst order instead of the faster order smooth
    benchmarks show.  ``base`` 4 gives the dyadic default; 3 a triadic
    sibling with the same roughness but unrelated scale alignment.  Only
    meaningful for k = 0 classes.
    """
    if spec.k != 0:
        raise ValueError("the multiscale benchmark is a k=0 construction")
    if base not in _MULTISCALE_LAYOUT:
        raise ValueError(f"base must be one of {sorted(_MULTISCALE_LAYOUT)}, got {base}")
    alpha = spec.alpha
    bands = Grid(_MULTISCALE_LAYOUT[base], 1)
    return HolderFunction(
        None,
        spec,
        exact_integral=_multiscale_axis_integral(alpha, base),
        name="multiscale" if base == 4 else f"multiscale{base}",
        profile=lambda t: _multiscale_axis(t, alpha, base, bands),
    )


def _raw_suite(spec: HolderClassSpec) -> list[HolderFunction]:
    d = spec.d
    raws = [
        HolderFunction(lambda pts: np.full(pts.shape[0], 0.5), spec, 0.5, "const-half"),
        HolderFunction(lambda pts: np.prod(pts, axis=1), spec, 0.5**d, "product"),
        HolderFunction(lambda pts: np.prod(np.cos(np.pi * pts), axis=1), spec, 0.0, "cos-product"),
        HolderFunction(lambda pts: ((pts - 0.5) ** 2).mean(axis=1), spec, 1.0 / 12.0, "quadratic"),
        HolderFunction(lambda pts: np.exp(-pts.sum(axis=1)), spec, (1.0 - math.exp(-1.0)) ** d, "exp-decay"),
    ]
    if spec.k == 0:
        raws.append(multiscale_function(spec))
        raws.append(multiscale_function(spec, base=3))
    return raws


def _fit_into_class(raw: HolderFunction) -> HolderFunction:
    report = verify_membership(raw)
    return _scaled(raw, min(1.0, _SUITE_MARGIN / max(report.worst_quotient, report.sup_norm, 1e-12)))


def test_suite(spec: HolderClassSpec) -> list[HolderFunction]:
    """Benchmark members with closed-form integrals, rescaled into the class.

    The scale factor is margin / max(measured quotient, measured sup) but
    never above one, so a function whose true constant exceeds the sampled
    estimate is not pushed out of the class.
    """
    return [_fit_into_class(raw) for raw in _raw_suite(spec)]


def _scaled(f: HolderFunction, scale: float) -> HolderFunction:
    if scale == 1.0:
        return f
    exact = None if f.exact_integral is None else scale * f.exact_integral
    if f.profile is not None:
        return HolderFunction(None, f.spec, exact, f.name, profile=f.profile, scale=scale * f.scale)
    return HolderFunction(lambda pts, _e=f.evaluator, _s=scale: _s * _e(pts), f.spec, exact, f.name)


def suite_member(spec: HolderClassSpec, name: str) -> HolderFunction:
    """The named ``test_suite`` member; only that member's constants are measured."""
    for raw in _raw_suite(spec):
        if raw.name == name:
            return _fit_into_class(raw)
    raise KeyError(f"no suite member named {name!r} for {spec}")


# ---------------------------------------------------------------------------
# Fooling family
# ---------------------------------------------------------------------------


def _hat_profile(tau: np.ndarray) -> np.ndarray:
    return 1.0 - np.abs(2.0 * tau - 1.0)


def _poly_profile(tau: np.ndarray, k: int) -> np.ndarray:
    return (4.0 * tau * (1.0 - tau)) ** (k + 1)


def _poly_profile_integral(k: int) -> float:
    # int_0^1 (4 t (1-t))^(k+1) dt via the Beta function.
    return 4.0 ** (k + 1) * math.factorial(k + 1) ** 2 / math.factorial(2 * k + 3)


@dataclass(frozen=True)
class FoolingInstance:
    """Sign-weighted disjoint bumps on a uniform partition of the cube."""

    spec: HolderClassSpec
    n_bumps: int
    cells_per_axis: int
    lambdas: np.ndarray
    height: float
    profile: str
    single_bump_integral: float
    exact_integral: float

    def as_function(self) -> HolderFunction:
        spec = self.spec
        grid = Grid(self.cells_per_axis, spec.d)
        lambdas = self.lambdas
        height = self.height
        k = spec.k
        profile = self.profile

        def evaluator(points: np.ndarray) -> np.ndarray:
            cells = grid.cell_of(points)
            tau = points * grid.ell - cells
            flat = grid.cell_index(cells.T)
            shape = _hat_profile(tau) if profile == "hat" else _poly_profile(tau, k)
            return lambdas[flat] * height * np.prod(shape, axis=1)

        return HolderFunction(evaluator, spec, exact_integral=self.exact_integral, name="fooling")


def _cells_per_axis(d: int, n_bumps: int) -> int:
    ell = round(n_bumps ** (1.0 / d))
    for cand in (ell - 1, ell, ell + 1):
        if cand >= 1 and cand**d == n_bumps:
            return cand
    raise ValueError(f"{n_bumps} bumps do not tile a {d}-cube (need an integer d-th root)")


@functools.cache
def _poly_height_factor(spec: HolderClassSpec) -> float:
    """Largest dyadic multiple of h**(k+alpha) keeping the quotient under 0.9.

    Calibrated once per class on a 2-per-axis alternating reference
    instance; the construction is scale-invariant so the factor transfers
    to every partition size, keeping single-bump integrals an exact power
    law in the bump count.
    """
    ell = 2
    signs = (-1.0) ** np.arange(ell**spec.d)
    base = _build_instance(spec, ell, signs, height=(1.0 / ell) ** (spec.k + spec.alpha))
    quotient = verify_membership(base.as_function()).worst_quotient
    target = 1.0 - 2 * MEMBERSHIP_TOL
    factor = 2.0 ** math.floor(math.log2(target / max(quotient, 1e-12)))
    while base.height * factor > target:
        factor /= 2.0
    return factor


def _build_instance(
    spec: HolderClassSpec, ell: int, lambdas: np.ndarray, height: float
) -> FoolingInstance:
    h = 1.0 / ell
    if spec.k == 0:
        profile, profile_integral = "hat", 0.5
    else:
        profile, profile_integral = "poly", _poly_profile_integral(spec.k)
    v = height * (profile_integral * h) ** spec.d
    return FoolingInstance(
        spec=spec,
        n_bumps=ell**spec.d,
        cells_per_axis=ell,
        lambdas=lambdas,
        height=height,
        profile=profile,
        single_bump_integral=v,
        exact_integral=float(lambdas.sum() * v),
    )


def fooling_family(spec: HolderClassSpec, n_bumps: int, signs) -> FoolingInstance:
    """n_bumps disjoint bumps of edge n**(-1/d) with weights in [-1, 1].

    Heights scale as the (k + alpha)-th power of the cell edge, so the
    single-bump integral is proportional to n**-(1 + gamma) and the weighted
    sum stays inside the class for any sign vector bounded by one.
    """
    ell = _cells_per_axis(spec.d, n_bumps)
    lambdas = np.asarray(signs, dtype=float)
    if lambdas.shape != (n_bumps,):
        raise ValueError(f"need {n_bumps} signs, got shape {lambdas.shape}")
    if np.abs(lambdas).max(initial=0.0) > 1.0 + 1e-12:
        raise ValueError("signs must lie in [-1, 1]")
    h = 1.0 / ell
    if spec.k == 0:
        height = (h / 2.0) ** spec.alpha * spec.d ** (spec.alpha / 2.0 - 1.0)
    else:
        height = h ** (spec.k + spec.alpha) * _poly_height_factor(spec)
    return _build_instance(spec, ell, lambdas, height)


def adversarial_signs(d: int, cells_per_axis: int, quad_per_axis: int) -> tuple[np.ndarray, int]:
    """Weights +1 on every bump cell missed by the tensor midpoint rule.

    Cells that contain a quadrature node get weight 0, so the rule reads the
    instance as identically zero while the unsampled mass remains.  Returns
    the weight vector and the number of unsampled cells.
    """
    nodes = Grid(quad_per_axis, 1).axis()
    hit_axis = np.unique(Grid(cells_per_axis, d).cell_of(nodes))
    lambdas = np.ones((cells_per_axis,) * d)
    lambdas[np.ix_(*([hit_axis] * d))] = 0.0
    flat = lambdas.ravel()
    return flat, int(flat.sum())
