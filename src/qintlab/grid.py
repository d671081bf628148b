"""The uniform tensor grid on [0, 1]^d that every rule, probe and stream walks.

A grid has ``ell`` cells per axis and its points are the ell**d cell
midpoints, at C-order flat indices.  The interpolation nodes of degree k are
a grid too: the midpoints of k + 1 equal parts of each cell are the cell
midpoints of the partition with (k + 1) * ell cells per axis.

Each coordinate of a point is one of ``ell`` values along its axis.
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
    """The midpoints of ``ell`` cells per axis in d dimensions.

    Raises OverflowError when the cell count cannot index an array.
    """

    def __init__(self, ell: int, d: int):
        self.ell = ell
        self.d = d
        self.size = ell**d
        if self.size > np.iinfo(np.intp).max:
            shown = ell if ell < 10**15 else f"(10^{math.log10(ell):.1f})"
            raise OverflowError(f"the cell count {shown}^{d} exceeds the largest array size")

    def _coordinates(self, cell: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``out``, filled in place with the midpoints of the cells ``cell`` along an axis."""
        np.add(cell, 0.5, out=out)
        out /= self.ell
        return out

    def points(self, idx: np.ndarray) -> np.ndarray:
        """The (idx.size, d) points at the flat indices ``idx``."""
        pts = np.empty((idx.size, self.d))
        # Cell positions become their coordinates in place.
        for axis, column in enumerate(self.split(idx)):
            pts[:, axis] = column
        return self._coordinates(pts, pts)

    def split(self, idx: np.ndarray) -> list[np.ndarray]:
        """Each point's position in ``axis()``, one index array per axis, axis 0 first."""
        return _digits(idx, self.ell, self.d)

    def axis(self) -> np.ndarray:
        """The ``ell`` distinct coordinates along every axis, in ``split`` order."""
        return self._coordinates(np.arange(self.ell), np.empty(self.ell))

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
