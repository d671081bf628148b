"""The uniform tensor grid on [0, 1]^d that every rule, probe and stream walks.

A grid has ``ell`` cells per axis.  Without ``local`` its points are the
ell**d cell midpoints.  With ``local``, the positions of m nodes inside the
unit interval, every cell holds m**d nodes and the points are those nodes.
Flat indices are C-order and cell-major: the cell's index, then the node's
index inside the cell.

Each coordinate of a point is one of ``per_axis`` values along its axis.
``axis()`` holds those values and ``split(idx)`` gives each point's position
in it, axis by axis, so a function built from one-variable profiles can be
read from per-axis tables.  ``points`` and ``axis`` share one coordinate
function, so ``points(idx)[:, j]`` is ``axis()[split(idx)[j]]`` bit for bit.
The grid owns the way back too: ``cell_of`` and ``cell_index``.
"""

from __future__ import annotations

import math

import numpy as np


def _digits(rem: np.ndarray, base: int, d: int) -> list[np.ndarray]:
    """The d base-``base`` digits of C-order flat indices, axis 0 first.

    Below base**d, what is left after the other axes is axis 0's digit.
    Each digit is the remainder as ``rem - quotient * base``: numpy divides
    by a scalar far faster with ``//`` than with ``np.divmod``.
    """
    digits = [rem] * d
    for axis in range(d - 1, 0, -1):
        quotient = rem // base
        digit = quotient * base
        np.subtract(rem, digit, out=digit)
        digits[axis], rem = digit, quotient
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

    def _coordinates(self, cell: np.ndarray, node, out: np.ndarray) -> np.ndarray:
        """``out``, filled in place with the coordinates of the nodes ``node`` in
        the cells ``cell`` along an axis; ``node`` is None on a midpoint grid."""
        np.add(cell, 0.5, out=out)
        out /= self.ell
        if node is not None:
            # From the cell's midpoint back to its corner, then on to the node.
            out -= 0.5 / self.ell
            out += (self.local / self.ell).take(node)
        return out

    def points(self, idx: np.ndarray) -> np.ndarray:
        """The (idx.size, d) points at the flat indices ``idx``."""
        pts = np.empty((idx.size, self.d))
        if self.local is None:
            # Midpoint positions become their coordinates in place.
            for axis, column in enumerate(self.split(idx)):
                pts[:, axis] = column
            return self._coordinates(pts, None, pts)
        # Node grids keep each axis's cell and node apart, as their coordinates use them.
        node = np.empty(pts.shape, dtype=np.intp)
        for axis, (c, n) in enumerate(self._cells_and_nodes(idx)):
            pts[:, axis] = c
            node[:, axis] = n
        return self._coordinates(pts, node, pts)

    def _cells_and_nodes(self, idx: np.ndarray):
        """Per axis, axis 0 first, the cell and the node in it of each point."""
        m, d = self.nodes_per_cell, self.d
        cell, local = np.divmod(idx, m**d)
        return zip(_digits(cell, self.ell, d), _digits(local, m, d))

    def split(self, idx: np.ndarray) -> list[np.ndarray]:
        """Each point's position in ``axis()``, one index array per axis, axis 0 first."""
        m = self.nodes_per_cell
        if m == 1:
            return _digits(idx, self.ell, self.d)
        return [c * m + n for c, n in self._cells_and_nodes(idx)]

    def axis(self) -> np.ndarray:
        """The ``per_axis`` distinct coordinates along every axis, in ``split`` order."""
        pos = np.arange(self.per_axis)
        cell, node = (pos, None) if self.local is None else np.divmod(pos, self.nodes_per_cell)
        return self._coordinates(cell, node, np.empty(self.per_axis))

    def cell_of(self, t: np.ndarray) -> np.ndarray:
        """The cell along an axis that holds each coordinate in ``t``; 1.0 is in the last."""
        cells = (t * self.ell).astype(int)
        np.minimum(cells, self.ell - 1, out=cells)
        return cells

    def cell_index(self, axis_cells) -> np.ndarray:
        """The C-order flat index of the cells given one index array per axis, axis 0 first.

        The cells must be in range, as ``cell_of`` gives them: nothing is
        checked.  At d = 1 the index is the cells themselves.
        """
        flat = axis_cells[0]
        for cells in axis_cells[1:]:
            flat = flat * self.ell
            flat += cells
        return flat
