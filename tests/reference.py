"""Plain references for what the pipeline computes without naming it,
and an exact output CDF to check it against.

The pipeline needs none of these: ``pushforward_density`` sums the curve
mass while it fills the cells, and the layer table keeps only the
covering mask of each open interval and the preimage counts of each
critical value as arrays.  The tests use them to query and check those
results from outside, as sets and records.
"""

import dataclasses

import numpy as np

from pushfold import RangeError, SinPlusTwo, Uniform
from pushfold.partition import DEFAULT_VALUE_TOL, PREIMAGE_KINDS
from pushfold.unfold import eta_eval


@dataclasses.dataclass(frozen=True)
class BoundaryClassification:
    """Counts of preimage types of one critical value."""

    interior_minima: int = 0
    interior_maxima: int = 0
    regular: int = 0
    endpoint_minima: int = 0
    endpoint_maxima: int = 0


def index_sets(table):
    """The 1-based branches covering each open interval, as frozensets."""
    return tuple(frozenset((np.flatnonzero(row) + 1).tolist())
                 for row in table.covering)


def classifications(table):
    """The preimage counts of each critical value, as records."""
    return tuple(BoundaryClassification(**dict(zip(PREIMAGE_KINDS, row)))
                 for row in table.counts.tolist())


def closed_membership(y, j, p):
    """True where y lies in the closed image interval of branch j
    (1-based), endpoint images included; y and j broadcast."""
    j = np.asarray(j)
    lam = p.lambdas[j - 1]
    t = (y - p.g_alphas[j - 1]) * np.sign(lam)
    inside = (0.0 <= t) & (t <= np.abs(lam))
    return bool(inside) if np.ndim(inside) == 0 else inside


def index_set(y, table, p):
    """Branches whose image contains y.

    On the open interval between consecutive critical values the stored
    set is returned; at a critical value itself (float-level equality,
    not the much coarser duplicate-collapse tolerance) membership is
    evaluated with closed bounds.  y outside [g_min, g_max] raises
    RangeError.
    """
    if y < table.g_min or y > table.g_max:
        raise RangeError(f"y={y} outside [{table.g_min}, {table.g_max}]")
    eq_tol = 1e-12 * (table.g_max - table.g_min)
    hits = np.abs(table.values - y) <= eq_tol
    if hits.any():
        b = float(table.values[int(np.argmax(hits))])
        branches = np.arange(1, p.n_branches + 1)
        return frozenset(branches[closed_membership(b, branches, p)].tolist())
    i = int(np.searchsorted(table.values, y, side="right")) - 1
    i = min(i, len(table.covering) - 1)
    return index_sets(table)[i]


def midpoints(table):
    """Centers of the open intervals between consecutive critical values,
    the points build_layer_table evaluates the index sets at."""
    return 0.5 * table.values[:-1] + 0.5 * table.values[1:]


def value_tol_abs(table, value_tol=DEFAULT_VALUE_TOL):
    """The absolute duplicate-collapse tolerance build_layer_table used."""
    return value_tol * (table.g_max - table.g_min)


def total(cls):
    """Number of preimages a BoundaryClassification counts."""
    return sum(dataclasses.astuple(cls))


SIMPSON_PANELS = 2048


def simpson_integral(f, a, b):
    """Composite Simpson quadrature on SIMPSON_PANELS (even) panels."""
    xs = np.linspace(a, b, SIMPSON_PANELS + 1)
    ys = np.asarray(f(xs), dtype=float)
    h = (b - a) / SIMPSON_PANELS
    return float(h / 3.0 * (ys[0] + ys[-1] + 4.0 * ys[1:-1:2].sum() + 2.0 * ys[2:-1:2].sum()))


def curve_mass(curve):
    """Integral of the curve: per-interval cell sums, intervals added up.

    Cells are uniform within an interval, so summing midpoint values
    times the cell width equals the trapezoid rule over the points with
    flat half-cell extensions at both interval ends.
    """
    if len(curve.ys) == 0:
        raise ValueError("empty curve")
    mass = 0.0
    for i in np.unique(curve.interval_ids):
        inside = curve.interval_ids == i
        width = curve.edges[i + 1] - curve.edges[i]
        mass += curve.mu_ys[inside].sum() * (width / inside.sum())
    return float(mass)


def bin_average(curve, edges):
    """Bin heights of a curve: the equal-weight mean of its points in
    each bin, a plain binning of the midpoint curve to measure it
    against an exact histogram.  Every bin must hold a point."""
    nb = len(edges) - 1
    idx = np.clip(np.searchsorted(edges, curve.ys, side="right") - 1, 0, nb - 1)
    counts = np.bincount(idx, minlength=nb)
    if not counts.all():
        raise ValueError(f"{int((counts == 0).sum())} bins hold no curve point")
    return np.bincount(idx, weights=curve.mu_ys, minlength=nb) / counts


def input_cdf(spec, x):
    """F_X(x) in closed form for a ``uniform`` or ``sin_plus_two`` spec."""
    a = spec.alpha
    x = np.clip(x, a, spec.beta)
    if isinstance(spec, Uniform):
        return (x - a) / spec.normalization
    assert isinstance(spec, SinPlusTwo), type(spec).__name__
    # the sine term's integral with sinc, as SinPlusTwo normalizes, so
    # that omega = 0 needs no division
    w = spec.omega
    sine = (x - a) * np.sin(w * (a + x) / 2.0) * np.sinc(w * (x - a) / (2.0 * np.pi))
    return (2.0 * (x - a) + sine) / spec.normalization


def logistic_cdf(rate, iterations, spec, y):
    """Exact P(f^n(X) <= y) for f(x) = rate*x*(1-x) and X ~ spec.

    ``[0, y]`` is pulled back through f once per iteration: the preimage
    of ``[a, b]`` in [0, 1] is ``[x-(a), x-(b)]`` and ``[x+(b), x+(a)]``
    with ``x±(c) = (1 ± sqrt(1 - 4c/rate))/2`` and c clipped to the range
    [0, rate/4].  The input CDF is summed over the 2^n intervals.
    """
    y = np.asarray(y, dtype=float)
    lo, hi = np.zeros(y.shape + (1,)), y[..., None]
    for _ in range(iterations):
        ra = np.sqrt(1.0 - 4.0 * np.clip(lo, 0.0, rate / 4.0) / rate)
        rb = np.sqrt(1.0 - 4.0 * np.clip(hi, 0.0, rate / 4.0) / rate)
        lo = np.concatenate([(1.0 - ra) / 2.0, (1.0 + rb) / 2.0], axis=-1)
        hi = np.concatenate([(1.0 - rb) / 2.0, (1.0 + ra) / 2.0], axis=-1)
    return (input_cdf(spec, hi) - input_cdf(spec, lo)).sum(axis=-1)


def table_cdf(table_map, spec, y):
    """Exact P(g(X) <= y) for a ``table`` map g and a ``uniform`` X.

    g is linear and not flat between its knots, so each segment
    contributes the share of its length where g <= y.
    """
    assert isinstance(spec, Uniform), type(spec).__name__
    x0, x1 = table_map.xs[:-1], table_map.xs[1:]
    g0, g1 = table_map.ys[:-1], table_map.ys[1:]
    assert (g0 != g1).all(), "flat segment"
    share = np.clip((np.asarray(y, dtype=float)[..., None] - g0) / (g1 - g0), 0.0, 1.0)
    share = np.where(g1 > g0, share, 1.0 - share)
    return ((x1 - x0) * share).sum(axis=-1) / spec.normalization


def offset_cdf(p, um, spec, ys):
    """F_Y with each branch direction written out: the preimage offset
    (y - g(a_{j-1}))*sign(lambda_j) is clipped to [0, |lambda_j|], and the
    branch start term is F_X at a_{j-1} for an increasing branch and at
    a_j for a decreasing one."""
    starts = spec._raw_cdf(np.where(p.lambdas > 0, p.alphas[:-1], p.alphas[1:]))
    total = 0.0
    for j, lam in enumerate(p.lambdas):
        t = np.clip((ys - p.g_alphas[j]) * np.sign(lam), 0.0, abs(lam))
        total += np.abs(spec._raw_cdf(eta_eval(um, p.masses[j] + t)) - starts[j])
    return total / spec.normalization


def _cell_queries(sm, y, side):
    """(cell, query) pairs of the cells whose value range [lo, hi) holds
    the query, or [lo, hi] with side "right"; a flat cell holds none."""
    lo = np.minimum(sm.ys[:-1], sm.ys[1:])
    hi = np.maximum(sm.ys[:-1], sm.ys[1:])
    by_y = np.argsort(y, kind="stable")
    first = np.searchsorted(y[by_y], lo, side="left")
    counts = np.where(lo < hi, np.searchsorted(y[by_y], hi, side=side) - first, 0)
    cell = np.repeat(np.arange(len(lo)), counts)
    starts = np.repeat(first - (np.cumsum(counts) - counts), counts)
    return cell, by_y[starts + np.arange(counts.sum())]


def _preimage(sm, cell, y):
    """Where the linear piece of each cell meets its query."""
    x0, x1 = sm.xs[cell], sm.xs[cell + 1]
    a, b = sm.ys[cell], sm.ys[cell + 1]
    return np.clip(x0 + (y - a) / (b - a) * (x1 - x0), x0, x1)


def cell_cdf(sm, spec, ys):
    """P(g~(X) <= y) for the sampled interpolant g~, summed per grid cell
    with no partition, unfolding or preimage rule.

    g~ is linear on each cell [x_i, x_{i+1}].  A cell adds its whole
    input mass once y reaches its larger value, and for y inside its
    value range the part of its mass where the linear piece lies below
    y.  The whole cells come from one cumsum over the cells sorted by
    their larger value, the partial ones from the (cell, y) pairs with y
    in the cell's range, added per y by bincount.
    """
    y = np.asarray(ys, dtype=float)
    flat = y.ravel()
    fx = spec._raw_cdf(sm.xs)
    hi = np.maximum(sm.ys[:-1], sm.ys[1:])
    by_hi = np.argsort(hi, kind="stable")
    whole = np.concatenate([[0.0], np.cumsum(np.diff(fx)[by_hi])])
    total = whole[np.searchsorted(hi[by_hi], flat, side="right")]
    cell, query = _cell_queries(sm, flat, "left")
    fq = spec._raw_cdf(_preimage(sm, cell, flat[query]))
    rising = sm.ys[cell + 1] > sm.ys[cell]
    below = np.where(rising, fq - fx[cell], fx[cell + 1] - fq)
    total += np.bincount(query, weights=below, minlength=flat.size)
    return (total / spec.normalization).reshape(y.shape)


def cell_density(sm, spec, ys):
    """Density of g~(X) at y: the input density at each preimage times
    the cell's inverse slope, summed over the cells whose closed value
    range holds y, so a sampled value takes the cells on both sides."""
    y = np.asarray(ys, dtype=float)
    flat = y.ravel()
    cell, query = _cell_queries(sm, flat, "right")
    slope = np.diff(sm.xs)[cell] / np.abs(np.diff(sm.ys)[cell])
    terms = spec.pdf(_preimage(sm, cell, flat[query])) * slope
    return np.bincount(query, weights=terms, minlength=flat.size).reshape(y.shape)
