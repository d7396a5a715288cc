"""Input densities, the pushforward density and its CDF.

Each density kind integrates its raw shape from alpha to x exactly, in
closed form or by trapezoids over a table's knots; at beta that is its
normalization.  ``pushforward_cdf`` sums each branch's mass below y.
``pushforward_density`` evaluates the density of the transformed variable
on a per-interval midpoint grid: between two consecutive critical values
the covering branches are known from the layer table, each branch
contributes the input density at its local preimage times the
inverse-map slope there, and the contributions sum.  The cell width is
the range over a requested cell count, rounded per interval, and the
curve mass is summed interval by interval.
Critical values themselves are never sampled (cell midpoints only), so
the integrable singularities at interior extrema are represented by
finite, grid-limited peaks.

The cells are evaluated in blocks of ``PAIR_BLOCK // n_branches``
consecutive cells (at least one), which run across interval bounds.
Each block takes its (covering branch x cell) pairs from the layer
table, branch-major, and evaluates them by one preimage, one inverse and
one slope call.  Each cell's terms are then added in pair order, so
every value is the sum over its branches in ascending order, whatever
the block size.  A map with hundreds of branches thus costs a few array
calls per block whatever the interval count, each branch's queries in a
block reach the inverse as one monotone run, and the temporaries stay
bounded by the block size whatever the grid or branch count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateInputError
from .partition import LayerTable, MonotonePartition, u_of_y
from .unfold import UnfoldedMap, eta_derivative, eta_eval

DEFAULT_CELLS = 500

# Upper bound on the (branch, cell) pairs evaluated together; a map
# with more branches than this evaluates one cell per block.
PAIR_BLOCK = 8192


@dataclass(frozen=True)
class DensitySpec:
    """Base input density on [alpha, beta]; normalization computed once."""

    alpha: float
    beta: float
    normalization: float = field(init=False)

    def __post_init__(self):
        if not self.alpha < self.beta:
            raise ValueError(f"need alpha < beta, got [{self.alpha}, {self.beta}]")
        # an overflowing shape gives inf or nan here, rejected below
        with np.errstate(over="ignore", invalid="ignore"):
            z = float(self._raw_cdf(self.beta))
        if not (math.isfinite(z) and z > 0.0):
            raise DegenerateInputError(
                f"density normalization constant {z!r} is not finite and positive")
        object.__setattr__(self, "normalization", z)

    def _raw(self, x):
        raise NotImplementedError

    def _raw_cdf(self, x):
        """Exact integral of the raw shape over [alpha, x]."""
        raise NotImplementedError

    def pdf(self, x):
        """Normalized density value(s) at x."""
        return self._raw(np.asarray(x, dtype=float)) / self.normalization


@dataclass(frozen=True)
class SinPlusTwo(DensitySpec):
    """Shape sin(omega*x) + 2, strictly positive for every omega."""

    omega: float = 5.0

    def _raw(self, x):
        return np.sin(self.omega * x) + 2.0

    def _raw_cdf(self, x):
        # the sine term is (cos(omega*a) - cos(omega*x)) / omega, written
        # with sinc so that omega = 0 needs no division
        a = self.alpha
        return (2.0 * (x - a) + (x - a) * np.sin(self.omega * (a + x) / 2.0)
                * np.sinc(self.omega * (x - a) / (2.0 * np.pi)))


@dataclass(frozen=True)
class Uniform(DensitySpec):
    def _raw(self, x):
        return np.ones_like(np.asarray(x, dtype=float))

    def _raw_cdf(self, x):
        return x - self.alpha


@dataclass(frozen=True, eq=False)
class TableDensity(DensitySpec):
    """Nonnegative weights at sample points, linearly interpolated."""

    xs: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        if not (np.isfinite(self.xs).all() and np.isfinite(self.weights).all()):
            raise ValueError("table values must be finite")
        if len(self.xs) != len(self.weights) or len(self.xs) < 2:
            raise ValueError("table needs matching x/weight columns of length >= 2")
        if not np.all(np.diff(self.xs) > 0):
            raise ValueError("table x values must be strictly increasing")
        if (self.weights < 0).any():
            raise ValueError("table weights must be nonnegative")
        if not (self.weights > 0).any():
            raise ValueError("table weights must not all be zero")
        inner = self.xs[(self.xs > self.alpha) & (self.xs < self.beta)]
        knots = np.concatenate([[self.alpha], inner, [self.beta]])
        w = np.interp(knots, self.xs, self.weights)
        # built once: the knots in [alpha, beta], their weights and the
        # trapezoid sums below each; writable, as np.interp copies a
        # read-only argument on every call
        object.__setattr__(self, "_knots", (knots, w, np.append(
            0.0, np.cumsum(np.diff(knots) * (w[:-1] + w[1:]) / 2.0))))
        super().__post_init__()
        self.xs.setflags(write=False)
        self.weights.setflags(write=False)

    def _raw(self, x):
        knots, w, _ = self._knots
        return np.interp(x, knots, w)

    def _raw_cdf(self, x):
        """Trapezoids over the knots below x, exact for the interpolant."""
        knots, w, below = self._knots
        k = np.clip(np.searchsorted(knots, x, side="right") - 1, 0, len(knots) - 2)
        return below[k] + (x - knots[k]) * (w[k] + self._raw(x)) / 2.0


# config kind name -> density variant
DENSITY_KINDS = {"sin_plus_two": SinPlusTwo, "uniform": Uniform, "table": TableDensity}


@dataclass(frozen=True, eq=False)
class DensityCurve:
    """Pushforward density sampled at per-interval cell midpoints.

    edges holds the critical values bounding the intervals;
    interval_ids[q] is the 0-based interval of point q.  delta is the
    global step, the range over the requested cell count; each interval
    uses the nearest step that fits an integer number of cells, so no
    point ever lands on an edge.  mass is the curve integral: per
    interval, the cell sum of midpoint values times the cell width.
    """

    ys: np.ndarray
    mu_ys: np.ndarray
    interval_ids: np.ndarray
    edges: np.ndarray
    delta: float
    mass: float

    def __post_init__(self):
        for arr in (self.ys, self.mu_ys, self.interval_ids, self.edges):
            arr.setflags(write=False)


def pushforward_density(
    p: MonotonePartition,
    table: LayerTable,
    um: UnfoldedMap,
    spec: DensitySpec,
    cells: int = DEFAULT_CELLS,
    gprime=None,
) -> DensityCurve:
    """Evaluate the pushforward density on per-interval midpoint grids.

    At each evaluation point y the contributions of all covering
    branches are summed: input density at the branch preimage times the
    local inverse slope.  The global step is the range over ``cells``.
    The slope comes from the interpolant by default; passing ``gprime``
    (a callable for dg/dx) switches the Jacobian to 1/|gprime| evaluated
    at the preimage.
    """
    if cells < 1:
        raise ValueError(f"need at least one cell, got {cells}")
    delta = (table.g_max - table.g_min) / cells
    # every interval's cells at once; rint rounds half to even, as round does
    lo, hi = table.values[:-1], table.values[1:]
    n_cells = np.maximum(1.0, np.rint((hi - lo) / delta))
    if not n_cells.sum() < 2.0 ** 63:  # the int cast would wrap
        raise MemoryError(f"{cells} cells are more than an array can index")
    n_cells = n_cells.astype(int)
    step = (hi - lo) / n_cells
    interval_ids = np.repeat(np.arange(len(n_cells)), n_cells)
    firsts = np.cumsum(n_cells) - n_cells
    local = np.arange(len(interval_ids)) - firsts[interval_ids]
    ys = lo[interval_ids] + (local + 0.5) * step[interval_ids]

    mu_ys = np.empty(len(ys))
    per_block = max(1, PAIR_BLOCK // p.n_branches)
    for start in range(0, len(ys), per_block):
        block = slice(start, start + per_block)
        y = ys[block]
        # (covering branch, cell) pairs, branch-major; cell midpoints next
        # to a collapsed critical value can sit just past a branch image
        j, cell = np.nonzero(table.covering[interval_ids[block]].T)
        u = u_of_y(y[cell], j + 1, p)
        x = eta_eval(um, u)
        if gprime is None:
            jac = eta_derivative(um, u)
        else:
            with np.errstate(divide="ignore"):
                jac = 1.0 / np.abs(np.asarray(gprime(x), dtype=float))
        # bincount adds each cell's terms in pair order, ascending in j
        mu_ys[block] = np.bincount(cell, spec.pdf(x) * jac, len(y))
    # summed per interval, as the sum over a slice of the curve
    mass = float(sum(mu.sum() * h for mu, h in zip(np.split(mu_ys, firsts[1:]), step)))
    if not (math.isfinite(mass) and mass > 0.0):
        raise DegenerateInputError(
            f"pushforward curve mass {mass!r} is not finite and positive; "
            "the input density carries no weight at the sampled preimages")
    return DensityCurve(ys=ys, mu_ys=mu_ys, interval_ids=interval_ids,
                        edges=table.values, delta=float(delta), mass=mass)


def pushforward_cdf(p: MonotonePartition, um: UnfoldedMap, spec: DensitySpec, ys):
    """F_Y(y) = P(g(X) <= y) at an array of y: each branch adds its input
    mass between its preimages of -inf and of y, clipped to the branch's
    unfolded span, so no index set is needed."""
    def raw_cdf_at_preimage(y, j):
        u = np.clip(u_of_y(y, j, p), p.masses[j - 1], p.masses[j])
        return spec._raw_cdf(eta_eval(um, u))
    branches = np.arange(1, p.n_branches + 1)
    starts = raw_cdf_at_preimage(-np.inf, branches)
    total = sum(np.abs(raw_cdf_at_preimage(ys, j) - starts[j - 1]) for j in branches)
    return total / spec.normalization
