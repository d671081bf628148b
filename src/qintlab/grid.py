"""The uniform tensor grid on [0, 1]^d that every rule, probe and stream walks.

A grid has ``ell`` cells per axis.  Without ``local`` its points are the
ell**d cell midpoints.  With ``local``, the positions of m nodes inside the
unit interval, every cell holds m**d nodes and the points are those nodes.
Flat indices are C-order and cell-major: the cell's index, then the node's
index inside the cell.

Each coordinate of a point is one of ``per_axis`` values along its axis.
``axis()`` holds those values and ``split(idx)`` gives each point's position
in it, axis by axis, so a function built from one-variable profiles can be
read from per-axis tables.  ``axis()`` uses the arithmetic of ``points``, so
``points(idx)[:, j]`` equals ``axis()[split(idx)[j]]`` bit for bit.
"""

from __future__ import annotations

import functools
import math

import numpy as np


def _digits(rem: np.ndarray, base: int, d: int) -> list[np.ndarray]:
    """The d base-``base`` digits of C-order flat indices, axis 0 first.

    Below base**d, what is left after the other axes is axis 0's digit.
    """
    digits = [rem] * d
    for axis in range(d - 1, 0, -1):
        rem, digits[axis] = np.divmod(rem, base)
    digits[0] = rem
    return digits


class Grid:
    """``ell`` cells per axis in d dimensions; ``local`` places nodes inside each cell.

    Raises OverflowError when the point count cannot index an array.
    """

    def __init__(self, ell: int, d: int, local=None):
        self.ell = ell
        self.d = d
        self.local = None if local is None else np.asarray(local, dtype=float)
        self.nodes_per_cell = 1 if local is None else self.local.size
        self.per_axis = ell * self.nodes_per_cell
        self.size = self.per_axis**d
        if self.size > np.iinfo(np.intp).max:
            kind = "cell" if local is None else "node"
            per_axis = self.per_axis if self.per_axis < 10**15 else f"(10^{math.log10(self.per_axis):.1f})"
            raise OverflowError(f"the {kind} count {per_axis}^{d} exceeds the largest array size")

    @functools.cached_property
    def _offsets(self) -> np.ndarray:
        # Each node's offset from its cell's corner, in the cell's local order.
        mesh = np.meshgrid(*([self.local / self.ell] * self.d), indexing="ij")
        return np.stack([column.ravel() for column in mesh], axis=1)

    def _midpoints(self, cells: np.ndarray) -> np.ndarray:
        pts = np.empty((cells.size, self.d))
        for axis, digit in enumerate(_digits(cells, self.ell, self.d)):
            pts[:, axis] = digit
        pts += 0.5
        pts /= self.ell
        return pts

    def points(self, idx: np.ndarray) -> np.ndarray:
        """The (idx.size, d) points at the flat indices ``idx``."""
        if self.local is None:
            return self._midpoints(idx)
        cell, local = np.divmod(idx, self.nodes_per_cell**self.d)
        return (self._midpoints(cell) - 0.5 / self.ell) + self._offsets[local]

    def split(self, idx: np.ndarray) -> list[np.ndarray]:
        """Each point's position in ``axis()``, one index array per axis, axis 0 first."""
        m, d = self.nodes_per_cell, self.d
        if m == 1:
            return _digits(idx, self.ell, d)
        cell, local = np.divmod(idx, m**d)
        return [c * m + n for c, n in zip(_digits(cell, self.ell, d), _digits(local, m, d))]

    def axis(self) -> np.ndarray:
        """The ``per_axis`` distinct coordinates along every axis, in ``split`` order."""
        mid = np.arange(self.ell) + 0.5
        mid /= self.ell
        if self.local is None:
            return mid
        return ((mid - 0.5 / self.ell)[:, None] + (self.local / self.ell)[None, :]).ravel()
