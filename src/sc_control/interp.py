"""Grid lookups shared by the solvers and the Monte Carlo engines.

A lookup locates each query's cell on each axis, as an index k (the end
cells outside the grid) and the query's weight in [grid[k], grid[k+1]]
clipped to [0, 1], and then blends the cell's nodes: :func:`lerp` on a
curve, :func:`blend` on a surface.  :func:`cell` locates by binary search on
any increasing grid; :class:`UniformAxis` finds the same cells
arithmetically on a uniform grid.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError

# a uniform grid's nodes lie within this fraction of a step of
# grid[0] + i*step, far inside the half step that keeps the arithmetic
# guess of UniformAxis.index within one cell of the binary search
UNIFORM_TOLERANCE = 1e-6


def cell(grid, q):
    """Cell index of q on the grid (end cells outside it) and q's weight in the cell."""
    k = np.minimum(np.maximum(np.searchsorted(grid, q) - 1, 0), grid.size - 2)
    lo = grid.take(k)
    return k, _weight(q, lo, grid.take(k + 1) - lo)


def _weight(q, lo, width):
    return np.minimum(np.maximum((q - lo) / width, 0.0), 1.0)


def lerp(flat, k, t):
    """Linear interpolation between entries k and k + 1 of the last axis."""
    return (1.0 - t) * flat.take(k, axis=-1) + t * flat.take(k + 1, axis=-1)


def blend(surface, row_cell, col_cell):
    """``surface[..., i, j]`` blended over the cells (i, w) of the rows and
    (j, t) of the columns: one (n_y, n_x) surface or a stack (m, n_y, n_x)."""
    (i, w), (j, t) = row_cell, col_cell
    n_x = surface.shape[-1]
    # gather from the flattened surfaces: node (i, j) is entry i*n_x + j
    flat = np.reshape(surface, surface.shape[:-2] + (-1,))
    k = i * n_x + j
    return (1.0 - w) * lerp(flat, k, t) + w * lerp(flat, k + n_x, t)


def bilinear(xs, ys, surface, x, y):
    """Bilinear interpolation of ``surface[..., i, j]`` at (x, y) = (xs[j], ys[i]).

    Points outside the grid take the value at the nearest edge.  ``surface``
    is one (n_y, n_x) array or m of them stacked as (m, n_y, n_x): the cells
    are found once, and a stack gives an (m, ...) result.  Scalar (x, y)
    give a float per surface; arrays broadcast.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    scalar = x.ndim == 0 and y.ndim == 0
    x, y = np.broadcast_arrays(np.atleast_1d(x), np.atleast_1d(y))
    out = blend(surface, cell(ys, y), cell(xs, x))
    if not scalar:
        return out
    return float(out[0]) if out.ndim == 1 else out[..., 0]


class UniformAxis:
    """Cell lookups on a uniform grid without a binary search.

    The guess int((q - grid[0]) / step) lies within one cell of the binary
    search's answer; comparing q with the guessed cell's two nodes moves it
    there, so :meth:`cell` returns exactly what :func:`cell` returns, for
    every q (NaN and queries outside the grid included).  A grid with fewer
    than two nodes or a node that is not finite, or whose nodes stray from
    grid[0] + i*step by more than UNIFORM_TOLERANCE of a step, raises
    ValidationError naming ``name``.
    """

    def __init__(self, grid, name: str):
        grid = np.asarray(grid, dtype=float)
        n = grid.size
        # a non-finite node fails here, before any arithmetic on it
        step = (grid[-1] - grid[0]) / (n - 1) if n >= 2 and np.isfinite(grid).all() else 0.0
        if not (step > 0.0 and np.all(np.abs(grid - (grid[0] + step * np.arange(n)))
                                      <= UNIFORM_TOLERANCE * step)):
            raise ValidationError(f"{name} grid is not uniform: {n} nodes from "
                                  f"{grid[:1]} to {grid[-1:]}")
        self.grid = grid
        self._origin = grid[0]
        self._inv_step = 1.0 / step
        self._top = float(n - 2)
        self._width = grid[1:] - grid[:-1]
        # node k and node k + 1 of cell k, the end cells' outer nodes NaN:
        # every comparison with NaN is false, so the correction never moves
        # a query off the grid
        self._below = np.concatenate(([np.nan], grid[1:-1]))
        self._above = np.concatenate((grid[1:-1], [np.nan]))

    def index(self, q):
        """``clip(searchsorted(grid, q) - 1, 0, n - 2)``, found arithmetically."""
        guess = np.maximum((q - self._origin) * self._inv_step, 0.0)
        # fmin sends NaN to the top cell, where the binary search puts it
        k = np.fmin(guess, self._top).astype(np.intp)
        down = self._below.take(k) >= q
        up = self._above.take(k) < q
        k -= down
        k += up
        return k

    def cell(self, q):
        """(k, weight) of q, equal to :func:`cell` on this grid."""
        k = self.index(q)
        lo = self.grid.take(k)
        return k, _weight(q, lo, self._width.take(k))
