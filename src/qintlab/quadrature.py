"""Tensor midpoint rules and the interpolation projection with exact integrals.

The projection places degree-k tensor Lagrange nodes at interior equispaced
positions inside every cell of a uniform partition, so k = 0 reduces to the
cell-midpoint sample and no node is shared between cells.  Keeping nodes
strictly inside cells gives closed-form cell integrals and makes the node
budget exactly (cells * (k+1)) ** d.
"""

from __future__ import annotations

import numpy as np

from .holder import HolderFunction
from .ledger import ResourceLedger

# Points per evaluation batch in every streamed loop of the lab.
CHUNK = 1 << 18
PROBE_OVERSAMPLE = 8
_PROBE_CAP = 1 << 22


def cell_midpoints(indices: np.ndarray, ell: int, d: int) -> np.ndarray:
    """Midpoints of the cells with the given C-order flat indices."""
    pts = np.empty((indices.size, d))
    rem = indices
    for axis in range(d - 1, -1, -1):
        pts[:, axis] = (rem % ell + 0.5) / ell
        rem = rem // ell
    return pts


def midpoint_rule(f: HolderFunction, ell: int, ledger: ResourceLedger | None = None) -> float:
    """Average of f over the ell**d cell midpoints of the uniform partition."""
    if ell < 1:
        raise ValueError(f"cells per axis must be positive, got {ell}")
    d = f.spec.d
    n = ell**d
    total = 0.0
    for start in range(0, n, CHUNK):
        idx = np.arange(start, min(start + CHUNK, n))
        total += float(f(cell_midpoints(idx, ell, d), ledger).sum())
    return total / n


def _local_nodes(k: int) -> np.ndarray:
    return (2 * np.arange(k + 1) + 1) / (2 * (k + 1))


def _vandermonde_inverse(k: int) -> np.ndarray:
    tau = _local_nodes(k)
    V = np.vander(tau, k + 1, increasing=True)
    return np.linalg.inv(V)


def _integral_weights(k: int) -> np.ndarray:
    """Weights w with sum_i w_i p(tau_i) = int_0^1 p for every degree <= k."""
    moments = 1.0 / np.arange(1, k + 2)
    return _vandermonde_inverse(k).T @ moments


class PiecewiseInterpolant:
    """Degree-k tensor Lagrange interpolant on a uniform ell**d partition."""

    def __init__(self, spec, ell: int, node_values: np.ndarray):
        k, d = spec.k, spec.d
        self.spec = spec
        self.ell = ell
        self.n_points = ((k + 1) * ell) ** d
        # node_values arrives cell-major: shape (ell**d, (k+1)**d).
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
        cells = np.minimum((points * ell).astype(int), ell - 1)
        tau = points * ell - cells
        flat_cell = np.ravel_multi_index(tuple(cells.T), (ell,) * d)
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
        """All interpolation nodes, cell-major, matching node_values order."""
        k, d, ell = self.spec.k, self.spec.d, self.ell
        tau = _local_nodes(k)
        axis_cells = np.arange(ell)
        cell_mesh = np.meshgrid(*([axis_cells] * d), indexing="ij")
        local_mesh = np.meshgrid(*([tau] * d), indexing="ij")
        cells = np.stack([m.ravel() for m in cell_mesh], axis=1)
        locals_ = np.stack([m.ravel() for m in local_mesh], axis=1)
        pts = (cells[:, None, :] + locals_[None, :, :]) / ell
        return pts.reshape(-1, d)


def interpolate(
    f: HolderFunction, n_target: int, ledger: ResourceLedger | None = None
) -> PiecewiseInterpolant:
    """Projection onto piecewise degree-k tensor polynomials within budget.

    Uses the largest uniform partition whose node count stays at or below
    n_target; the minimum budget is one cell, (k+1)**d nodes.
    """
    k, d = f.spec.k, f.spec.d
    per_cell = k + 1
    ell = int(n_target ** (1.0 / d) / per_cell + 1e-9)
    while ell >= 1 and (per_cell * ell) ** d > n_target:
        ell -= 1
    if ell < 1:
        raise ValueError(f"budget {n_target} below the {per_cell ** d}-node minimum")
    tau = _local_nodes(k)
    ncells = ell**d
    nloc = per_cell**d
    node_values = np.empty((ncells, nloc))
    local_mesh = np.meshgrid(*([tau] * d), indexing="ij")
    local_offsets = np.stack([m.ravel() for m in local_mesh], axis=1)
    for start in range(0, ncells, max(1, CHUNK // nloc)):
        stop = min(start + max(1, CHUNK // nloc), ncells)
        idx = np.arange(start, stop)
        corners = cell_midpoints(idx, ell, d) - 0.5 / ell
        pts = (corners[:, None, :] + local_offsets[None, :, :] / ell).reshape(-1, d)
        node_values[start:stop] = f(pts, ledger).reshape(stop - start, nloc)
    return PiecewiseInterpolant(f.spec, ell, node_values)


def residual(f: HolderFunction, p: PiecewiseInterpolant) -> HolderFunction:
    """The function f - Pf; one f evaluation plus one local polynomial per point."""
    if p.spec.d != f.spec.d:
        raise ValueError("interpolant and function dimensions differ")
    evaluator = f.evaluator

    def g(points: np.ndarray) -> np.ndarray:
        return np.asarray(evaluator(points), dtype=float) - p.evaluate(points)

    exact = None
    if f.exact_integral is not None:
        exact = f.exact_integral - p.exact_integral
    return HolderFunction(g, f.spec, exact_integral=exact, name=f"{f.name or 'f'}-residual")


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
    n = per_axis**d
    worst = 0.0
    for start in range(0, n, CHUNK):
        idx = np.arange(start, min(start + CHUNK, n))
        chunk_max = float(np.abs(f.evaluator(cell_midpoints(idx, per_axis, d))).max())
        if not np.isfinite(chunk_max):
            raise ValueError(f"{f.name or 'function'} is not finite on the probe grid")
        worst = max(worst, chunk_max)
    return worst
