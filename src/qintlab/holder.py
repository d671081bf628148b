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


class HolderFunction:
    """An evaluable function on [0, 1]^d tagged with its class.

    ``evaluator`` maps an (npts, d) array to an (npts,) array.  Calling the
    function with a ledger charges one classical evaluation per point; the
    raw evaluator stays available for harness instrumentation that must not
    touch the cost accounting.
    """

    def __init__(
        self,
        evaluator: Callable[[np.ndarray], np.ndarray],
        spec: HolderClassSpec,
        exact_integral: float | None = None,
        name: str = "",
    ):
        self.evaluator = evaluator
        self.spec = spec
        self.exact_integral = exact_integral
        self.name = name

    def __call__(self, points: np.ndarray, ledger: ResourceLedger | None = None) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if points.shape[1] != self.spec.d:
            raise ValueError(f"points have dimension {points.shape[1]}, expected {self.spec.d}")
        if ledger is not None:
            ledger.classical_evals += points.shape[0]
        return np.asarray(self.evaluator(points), dtype=float)

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
    axis = (np.arange(resolution) + 0.5) / resolution
    mesh = np.meshgrid(*([axis] * d), indexing="ij")
    points = np.stack([m.ravel() for m in mesh], axis=1)
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
                x = tuple((idx[a] + 0.5) / resolution for a in range(spec.d))
                y = tuple(x[a] + offset[a] * h for a in range(spec.d))
                witness = (x, y)
    return worst, witness


def measure_constants(
    f: HolderFunction, resolution: int | None = None
) -> tuple[float, float]:
    """Measured (worst Holder quotient, sup norm) on the sampling grid."""
    resolution = resolution or _DEFAULT_RESOLUTION.get(f.spec.d, 8)
    values = _grid_values(f.evaluator, f.spec.d, resolution)
    quotient, _ = _worst_quotient(values, f.spec, resolution)
    return quotient, float(np.abs(values).max())


def verify_membership(f: HolderFunction, resolution: int | None = None) -> MembershipReport:
    """Sampled check of the sup bound and the order-k Holder condition."""
    resolution = resolution or _DEFAULT_RESOLUTION.get(f.spec.d, 8)
    if resolution < 2:
        raise ValueError("need at least 2 grid points per axis")
    values = _grid_values(f.evaluator, f.spec.d, resolution)
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


def _multiscale_axis(t: np.ndarray, alpha: float, base: int) -> np.ndarray:
    # Band b of width 1/levels hosts the triangle wave of period base**-(b+2)
    # at its alpha-scaled amplitude and with alternating sign, on top of a
    # global period-1/2 triangle.  Band edges and the coarse kinks sit on
    # integer multiples of every hosted period, so the profile is continuous,
    # its Holder quotient never accumulates across scales, and the signs
    # prevent fine-band integration errors from cancelling the active band.
    # Every point of band b has j = b + 2, so both powers of j are read from
    # per-band tables instead of being raised once per point.
    levels = _MULTISCALE_LAYOUT[base]
    band = np.minimum((t * levels).astype(int), levels - 1)
    j = np.arange(2, levels + 2)
    scale = float(base) ** j
    amp = (-1.0) ** j * float(base) ** (-j * alpha)
    tj = t * scale[band]
    fine = amp[band] * np.abs(tj - np.round(tj))
    coarse = 2.0 ** (1.0 - 2.0 * alpha) * np.abs(2.0 * t - np.round(2.0 * t))
    return coarse + fine


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

    def evaluator(points: np.ndarray) -> np.ndarray:
        acc = np.zeros(points.shape[0])
        for axis in range(spec.d):
            acc += _multiscale_axis(points[:, axis], alpha, base)
        return acc / spec.d

    return HolderFunction(
        evaluator,
        spec,
        exact_integral=_multiscale_axis_integral(alpha, base),
        name="multiscale" if base == 4 else f"multiscale{base}",
    )


def _raw_members(spec: HolderClassSpec) -> list[tuple[Callable, float, str]]:
    d = spec.d
    return [
        (lambda pts: np.full(pts.shape[0], 0.5), 0.5, "const-half"),
        (lambda pts: np.prod(pts, axis=1), 0.5**d, "product"),
        (lambda pts: np.prod(np.cos(np.pi * pts), axis=1), 0.0, "cos-product"),
        (lambda pts: ((pts - 0.5) ** 2).mean(axis=1), 1.0 / 12.0, "quadratic"),
        (lambda pts: np.exp(-pts.sum(axis=1)), (1.0 - math.exp(-1.0)) ** d, "exp-decay"),
    ]


def _raw_suite(spec: HolderClassSpec) -> list[HolderFunction]:
    raws = [
        HolderFunction(evaluator, spec, exact_integral=integral, name=name)
        for evaluator, integral, name in _raw_members(spec)
    ]
    if spec.k == 0:
        raws.append(multiscale_function(spec))
        raws.append(multiscale_function(spec, base=3))
    return raws


def _fit_into_class(raw: HolderFunction) -> HolderFunction:
    quotient, sup = measure_constants(raw)
    return _scaled(raw, min(1.0, _SUITE_MARGIN / max(quotient, sup, 1e-12)))


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
    evaluator = f.evaluator
    return HolderFunction(
        lambda pts, _e=evaluator, _s=scale: _s * _e(pts),
        f.spec,
        exact_integral=None if f.exact_integral is None else scale * f.exact_integral,
        name=f.name,
    )


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
        ell = self.cells_per_axis
        lambdas = self.lambdas
        height = self.height
        k = spec.k
        profile = self.profile

        def evaluator(points: np.ndarray) -> np.ndarray:
            cells = np.minimum((points * ell).astype(int), ell - 1)
            tau = points * ell - cells
            flat = np.ravel_multi_index(tuple(cells.T), (ell,) * spec.d)
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
    signs = np.array([(-1.0) ** i for i in range(ell**spec.d)])
    base = _build_instance(spec, ell, signs, height=(1.0 / ell) ** (spec.k + spec.alpha))
    quotient, sup = measure_constants(base.as_function())
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


def fooling_family(
    spec: HolderClassSpec, n_bumps: int, signs, c_geom: float = 1.0
) -> FoolingInstance:
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
        height = c_geom * (h / 2.0) ** spec.alpha * spec.d ** (spec.alpha / 2.0 - 1.0)
    else:
        height = c_geom * h ** (spec.k + spec.alpha) * _poly_height_factor(spec)
    return _build_instance(spec, ell, lambdas, height)


def adversarial_signs(d: int, cells_per_axis: int, quad_per_axis: int) -> tuple[np.ndarray, int]:
    """Weights +1 on every bump cell missed by the tensor midpoint rule.

    Cells that contain a quadrature node get weight 0, so the rule reads the
    instance as identically zero while the unsampled mass remains.  Returns
    the weight vector and the number of unsampled cells.
    """
    nodes = (2 * np.arange(quad_per_axis) + 1) / (2 * quad_per_axis)
    hit_axis = np.unique(np.minimum((nodes * cells_per_axis).astype(int), cells_per_axis - 1))
    lambdas = np.ones((cells_per_axis,) * d)
    lambdas[np.ix_(*([hit_axis] * d))] = 0.0
    flat = lambdas.ravel()
    return flat, int(flat.sum())
