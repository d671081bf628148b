"""Tensor midpoint rules and the interpolation projection with exact integrals.

The projection places degree-k tensor Lagrange nodes at interior equispaced
positions inside every cell of a uniform partition, so k = 0 reduces to the
cell-midpoint sample and no node is shared between cells.  Keeping nodes
strictly inside cells gives closed-form cell integrals and makes the node
budget exactly (cells * (k+1)) ** d.

Every rule here walks the cell midpoints of a ``Grid``: the midpoint rule
and the sup probe those of their partition, the projection those of the
(k + 1) * ell partition, which are its interpolation nodes.  Values come from
``HolderFunction.on_grid``, which reads an axis-mean function from one
profile table at d >= 2 and charges one classical evaluation per point
either way.  At k = 0 the residual of an axis-mean function is an axis
mean as well, so it is read from one table too.

``walk`` sizes its blocks in coordinates, not points: ``BLOCK`` coordinates
are ``BLOCK // d`` points.  An evaluator's temporaries hold one double per
coordinate, so the blocks of every dimension fill the same 64 KB.
"""

from __future__ import annotations

import numpy as np

from .grid import Grid
from .holder import HolderFunction
from .ledger import ResourceLedger

# Points per evaluation batch in every streamed loop of the lab.
CHUNK = 1 << 18
# Coordinates per evaluator call inside a walked chunk: BLOCK // d points.
# An evaluator makes many temporaries per call, one double per coordinate;
# at this size they stay in cache and in reused heap memory instead of being
# mapped and page-faulted afresh for every chunk.  Sums still run over whole
# chunks, so results do not depend on it.  Counting points instead doubles
# the d = 2 blocks: 8192-point d = 2 blocks, with a contiguous copy of the
# k = 0 node values, raised classical-sweep's peak RSS from 57.7 MB to
# 60.6-60.9 MB, past its 5% bound.
BLOCK = 1 << 13
PROBE_OVERSAMPLE = 8
_PROBE_CAP = 1 << 22


def walk(values, n: int, d: int):
    """``values`` at the positions 0..n-1 of d-dimensional points, yielded CHUNK at a time.

    ``values(idx)`` gives the values at the positions ``idx``, BLOCK // d
    points at a time; only a chunk's last call is shorter.  Every evaluator
    in the lab is pointwise, so a chunk holds the same values as one call on
    all of it.
    """
    block = max(1, BLOCK // d)
    for start in range(0, n, CHUNK):
        stop = min(start + CHUNK, n)
        vals = np.empty(stop - start)
        for lo in range(start, stop, block):
            hi = min(lo + block, stop)
            vals[lo - start : hi - start] = values(np.arange(lo, hi))
        yield vals


def midpoint_rule(f: HolderFunction, ell: int, ledger: ResourceLedger | None = None) -> float:
    """Average of f over the ell**d cell midpoints of the uniform partition."""
    if ell < 1:
        raise ValueError(f"cells per axis must be positive, got {ell}")
    grid = Grid(ell, f.spec.d)
    values = f.on_grid(grid)
    total = 0.0
    for vals in walk(lambda idx: values(idx, ledger), grid.size, grid.d):
        total += float(vals.sum())
    return total / grid.size


def _vandermonde_inverse(k: int) -> np.ndarray:
    tau = Grid(k + 1, 1).axis()
    V = np.vander(tau, k + 1, increasing=True)
    return np.linalg.inv(V)


def _node_grid(ell: int, k: int, d: int) -> Grid:
    """The interpolation nodes, the midpoints of k + 1 equal parts of each
    cell: the cell midpoints of the (k + 1) * ell partition, in C order."""
    return Grid((k + 1) * ell, d)


def _cell_major(values: np.ndarray, ell: int, k: int, d: int) -> np.ndarray:
    """The node grid's C-order ``values`` as (ell**d, (k+1)**d): a row per cell.

    Along an axis a node's position is cell * (k + 1) + node; the transpose
    puts every cell digit before every node digit, so at k = 0 and at d = 1
    it moves nothing and the result is a view.
    """
    m = k + 1
    order = (*range(0, 2 * d, 2), *range(1, 2 * d, 2))
    return values.reshape((ell, m) * d).transpose(order).reshape(ell**d, m**d)


def _integral_weights(k: int) -> np.ndarray:
    """Weights w with sum_i w_i p(tau_i) = int_0^1 p for every degree <= k."""
    moments = 1.0 / np.arange(1, k + 2)
    return _vandermonde_inverse(k).T @ moments


class PiecewiseInterpolant:
    """Degree-k tensor Lagrange interpolant on a uniform ell**d partition.

    ``node_values`` has one row per cell, in C order, holding the values at
    that cell's (k + 1)**d nodes in C order.
    """

    def __init__(self, spec, ell: int, node_values: np.ndarray):
        k, d = spec.k, spec.d
        self.spec = spec
        self.ell = ell
        self.cells = Grid(ell, d)
        self.n_points = ((k + 1) * ell) ** d
        self.node_values = node_values
        self._vinv = _vandermonde_inverse(k)
        w_axis = _integral_weights(k)
        w = w_axis
        for _ in range(d - 1):
            w = np.multiply.outer(w, w_axis)
        self._weights_flat = w.ravel()
        self.exact_integral = float(
            (node_values @ self._weights_flat).sum() / ell**d
        )

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        """Value of the local cell polynomial at each point; O(1) per point."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        k, d, ell = self.spec.k, self.spec.d, self.ell
        cells = self.cells.cell_of(points)
        if k == 0:
            # The basis is all ones: each point takes its cell's one node
            # value, plus 0.0 so that -0.0 reads 0.0 as in the one-term sum.
            # It is taken from the node column itself: a contiguous copy
            # would hold the node values twice.
            values = self.node_values[:, 0].take(self.cells.cell_index(cells.T))
            values += 0.0
            return values
        flat_cell = self.cells.cell_index(cells.T)
        tau = points * ell - cells
        basis = None
        for axis in range(d):
            powers = np.vander(tau[:, axis], k + 1, increasing=True)
            axis_basis = powers @ self._vinv
            if basis is None:
                basis = axis_basis
            else:
                basis = (basis[:, :, None] * axis_basis[:, None, :]).reshape(len(points), -1)
        return (self.node_values[flat_cell] * basis).sum(axis=1)

    def node_points(self) -> np.ndarray:
        """All interpolation nodes, cell-major, as ``interpolate`` evaluated them."""
        k, d = self.spec.k, self.spec.d
        idx = _cell_major(np.arange(self.n_points), self.ell, k, d)
        return _node_grid(self.ell, k, d).points(idx.ravel())


def interpolate(
    f: HolderFunction, n_target: int, ledger: ResourceLedger | None = None
) -> PiecewiseInterpolant:
    """Projection onto piecewise degree-k tensor polynomials within budget.

    Uses the largest uniform partition whose node count stays at or below
    n_target; the minimum budget is one cell, (k+1)**d nodes.  The node grid
    is walked in C order and regrouped cell-major, with one copy of the
    values unless k = 0 or d = 1.
    """
    k, d = f.spec.k, f.spec.d
    per_cell = k + 1
    ell = int(n_target ** (1.0 / d) / per_cell + 1e-9)
    # Sized before the step-down, which raises OverflowError past the largest
    # array: past float precision the estimate of ell can be off by more unit
    # steps than the loop could ever take.
    _node_grid(ell, k, d)
    while ell >= 1 and (per_cell * ell) ** d > n_target:
        ell -= 1
    if ell < 1:
        raise ValueError(f"budget {n_target} below the {per_cell ** d}-node minimum")
    grid = _node_grid(ell, k, d)
    values = f.on_grid(grid)
    flat = np.empty(grid.size)
    for i, vals in enumerate(walk(lambda idx: values(idx, ledger), grid.size, d)):
        flat[i * CHUNK : i * CHUNK + vals.size] = vals
    return PiecewiseInterpolant(f.spec, ell, _cell_major(flat, ell, k, d))


def residual(f: HolderFunction, p: PiecewiseInterpolant) -> HolderFunction:
    """The function f - Pf; one f evaluation plus one local polynomial per point.

    At k = 0, Pf at x is f at the node of x's cell.  For an axis-mean f,
    s * mean_i h(x_i), that node has the cell midpoints m(x_i) as its
    coordinates, so the residual is an axis mean too, of the profile
    r(t) = s * h(t) - s * h(m(t)) with scale one, and a grid reads it from
    one profile table.  It keeps the cells and the ell values s * h(m), not
    the interpolant.  At d = 1 it gives the doubles of f - Pf; at d >= 2 it
    averages the per-axis differences instead of differencing two means,
    which moves its values by ulps.
    """
    if p.spec.d != f.spec.d:
        raise ValueError("interpolant and function dimensions differ")
    exact = None
    if f.exact_integral is not None:
        exact = f.exact_integral - p.exact_integral
    name = f"{f.name or 'f'}-residual"
    if f.profile is not None and p.spec.k == 0:
        profile, scale, cells = f.profile, f.scale, p.cells
        # At k = 0 the nodes are the cell midpoints.
        at_nodes = profile(cells.axis())
        at_nodes *= scale

        def r(t: np.ndarray) -> np.ndarray:
            values = profile(t)
            values *= scale
            values -= at_nodes.take(cells.cell_of(t))
            return values

        return HolderFunction(None, f.spec, exact_integral=exact, name=name, profile=r)
    evaluator = f.evaluator

    def g(points: np.ndarray) -> np.ndarray:
        return np.asarray(evaluator(points), dtype=float) - p.evaluate(points)

    return HolderFunction(g, f.spec, exact_integral=exact, name=name)


def probe_sup(f: HolderFunction, cell_resolution: int) -> float:
    """Max |f| over an oversampled midpoint grid.

    The grid uses PROBE_OVERSAMPLE times the cell resolution per axis,
    capped in total size; probing is harness instrumentation and does not
    touch any ledger.  Raises ValueError if f is not finite on the grid.
    """
    d = f.spec.d
    per_axis = max(2, PROBE_OVERSAMPLE * cell_resolution)
    while per_axis**d > _PROBE_CAP and per_axis > 2:
        per_axis //= 2
    grid = Grid(per_axis, d)
    worst = 0.0
    for vals in walk(f.on_grid(grid), grid.size, d):
        chunk_max = float(np.abs(vals).max())
        if not np.isfinite(chunk_max):
            raise ValueError(f"{f.name or 'function'} is not finite on the probe grid")
        worst = max(worst, chunk_max)
    return worst
