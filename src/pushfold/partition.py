"""Piecewise-monotone structure of a sampled map.

``detect_extrema`` cuts a sampled map into strictly monotone branches in
two linear passes: flag every point where the first differences do not
keep a strict sign, then drop, left to right, each flag that would close
a branch moving less than the merge tolerance.  Of the bounds left, those
where the direction turns form a ``MonotonePartition``: the branch
boundaries, the signed image increments of each branch, and their
cumulative absolute sums (the coordinates of the unfolded range).

``build_layer_table`` then organizes the branch-boundary images into the
sorted set of critical values, a mask of the branches covering each
open interval between consecutive critical values, and the preimage
counts of every critical value by type (``PREIMAGE_KINDS``).
``transition_check`` verifies the combinatorial count relations that tie
adjacent intervals together across each critical value.

Branch indices are 1-based throughout; column j-1 of the covering mask
stands for branch j.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BranchError,
    DegenerateInputError,
    TableConstructionError,
)
from .maps import SampledMap

# Branches whose image increment is below MERGE_TOL * (g_max - g_min) are
# considered grid noise and fused into a neighbor.
MERGE_TOL = 1e-9

# Critical values closer than VALUE_TOL * (g_max - g_min) collapse to one
# entry.  Distinct extrema sharing a true image land on different grid
# points and split by O(h^2) in the sampled values, so this sits well
# above grid-induced splitting and well below genuine value gaps.
DEFAULT_VALUE_TOL = 1e-3

# detect_extrema flags the grid in pieces of this many interior points,
# so its first differences never take a whole grid array.
FLAG_PIECE = 16384


@dataclass(frozen=True, eq=False)
class MonotonePartition:
    """Branch decomposition of a sampled map.

    alphas[j] are the grid abscissae bounding the branches (endpoints
    plus detected extrema), g_alphas their images, lambdas[j-1] the
    signed image increment of branch j, and masses the cumulative absolute
    increments (masses[0] = 0); total_variation is their final sum.
    """

    alphas: np.ndarray
    alpha_indices: np.ndarray
    g_alphas: np.ndarray
    lambdas: np.ndarray
    masses: np.ndarray

    def __post_init__(self):
        for arr in (self.alphas, self.alpha_indices, self.g_alphas,
                    self.lambdas, self.masses):
            arr.setflags(write=False)

    @property
    def n_branches(self) -> int:
        return len(self.lambdas)

    @property
    def total_variation(self) -> float:
        return float(self.masses[-1])


# The preimage types of a critical value: the columns of LayerTable.counts.
PREIMAGE_KINDS = ("interior_minima", "interior_maxima", "regular",
                  "endpoint_minima", "endpoint_maxima")


@dataclass(frozen=True, eq=False)
class LayerTable:
    """Sorted critical values with the branches covering each interval.

    values[i] is the i-th critical value (values[0] = g_min,
    values[-1] = g_max); covering[i, j-1] is True where branch j covers
    the open interval (values[i], values[i+1]), so row i is that
    interval's index set; counts[i] counts the preimages of values[i] by
    type, one column per entry of PREIMAGE_KINDS.
    """

    values: np.ndarray
    covering: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        for arr in (self.values, self.covering, self.counts):
            arr.setflags(write=False)

    @property
    def g_min(self) -> float:
        return float(self.values[0])

    @property
    def g_max(self) -> float:
        return float(self.values[-1])


# an overflowing total variation is rejected below
@np.errstate(over="ignore")
def detect_extrema(sm: SampledMap) -> MonotonePartition:
    """Locate branch boundaries of a sampled map in two linear passes.

    Every interior grid point where the signs of adjacent first
    differences have a product <= 0 is flagged, plateaus and flat pairs
    included; the grid is scanned in pieces of FLAG_PIECE points.  Signs,
    not the differences themselves, are multiplied, so a product that
    would underflow to zero never reads as a turn.  Left to
    right, a flag that would close a branch moving less than
    MERGE_TOL * (g_max - g_min) is dropped, so the short branch joins its
    right neighbour; while the last branch is short, its left bound is
    dropped instead.  Of the bounds left, only those where the direction
    turns are kept.  Raises FloatingPointError if the total variation
    overflows.
    """
    ys = sm.ys
    value_range = sm.g_max - sm.g_min
    if value_range == 0.0:
        raise DegenerateInputError("map is constant on the whole grid")
    tol = MERGE_TOL * value_range

    idx = [0]
    for start in range(0, len(ys) - 2, FLAG_PIECE):
        # the interior points start + 1 .. start + FLAG_PIECE
        s = np.sign(np.diff(ys[start:start + FLAG_PIECE + 2]))
        for t in (np.flatnonzero(s[:-1] * s[1:] <= 0.0) + (start + 1)).tolist():
            if abs(ys[t] - ys[idx[-1]]) >= tol:
                idx.append(t)
    while len(idx) > 1 and abs(ys[-1] - ys[idx[-1]]) < tol:
        idx.pop()
    idx.append(len(ys) - 1)

    # Joining two branches of one direction never makes a short branch,
    # so the bounds between them all go at once.
    s = np.sign(np.diff(ys[idx]))
    indices = np.delete(idx, np.flatnonzero(s[:-1] * s[1:] > 0.0) + 1)
    lam = np.diff(ys[indices])
    masses = np.concatenate([[0.0], np.cumsum(np.abs(lam))])
    if not np.isfinite(masses[-1]):
        raise FloatingPointError(
            f"total variation {float(masses[-1])!r} of the sampled map is not finite")
    return MonotonePartition(
        alphas=sm.xs[indices],
        alpha_indices=indices,
        g_alphas=ys[indices],
        lambdas=lam,
        masses=masses,
    )


def _branch_offset(y, j, p: MonotonePartition):
    """Distance of y past the branch-j start image along the branch
    direction, and the branch's image length; y and j broadcast."""
    j = np.asarray(j)
    unknown = (j < 1) | (j > p.n_branches)
    if unknown.any():
        raise BranchError(
            f"branch index {j.flat[np.argmax(unknown)]} outside 1..{p.n_branches}")
    lam = p.lambdas[j - 1]
    return (y - p.g_alphas[j - 1]) * np.sign(lam), np.abs(lam)


def layer_membership(y, j, p: MonotonePartition):
    """True where y lies strictly inside the image interval of branch j
    (1-based); the branch-endpoint images are excluded.

    y and j broadcast against each other; two scalars give a bool.
    """
    t, width = _branch_offset(y, j, p)
    inside = (0.0 < t) & (t < width)
    return bool(inside) if np.ndim(inside) == 0 else inside


def u_of_y(y, j, p: MonotonePartition):
    """Unfolded coordinate of the branch-j preimage of y.

    y and j broadcast against each other; two scalars give a float.  The
    branch start image maps to masses[j-1], the end image to masses[j],
    and the branch line extends past both ends.
    """
    u = p.masses[np.asarray(j) - 1] + _branch_offset(y, j, p)[0]
    return float(u) if np.ndim(u) == 0 else u


def build_layer_table(p: MonotonePartition, value_tol: float = DEFAULT_VALUE_TOL) -> LayerTable:
    """Sort, deduplicate and classify the branch-boundary images.

    Boundary images within value_tol * (g_max - g_min) of each other
    collapse into a single critical value (its representative is the
    cluster mean, except that the extreme clusters keep the exact
    sampled g_min / g_max).  The covering mask is evaluated once per
    interval at its midpoint; by constancy of the covering branches on
    each open interval this determines them everywhere.
    """
    ga = p.g_alphas
    g_min = float(ga.min())
    g_max = float(ga.max())
    tol_abs = value_tol * (g_max - g_min)

    # A cluster runs while the images stay within tol_abs of its first one.
    order = np.argsort(ga, kind="stable")
    sorted_vals = ga[order]
    starts = [0]
    for t in range(1, len(sorted_vals)):
        if sorted_vals[t] - sorted_vals[starts[-1]] > tol_abs:
            starts.append(t)
    # halves first, so that no sum passes the largest float
    values = np.array([2.0 * (0.5 * vals).mean() for vals in np.split(sorted_vals, starts[1:])])
    values[0], values[-1] = g_min, g_max
    member_of = np.empty(len(ga), dtype=int)
    member_of[order] = np.searchsorted(starts, np.arange(len(ga)), side="right") - 1

    # A branch whose two boundary images collapse into one cluster cannot
    # be classified as isolated critical points: the collapse is
    # inconsistent at this tolerance.
    collapsed = np.flatnonzero(member_of[:-1] == member_of[1:])
    if len(collapsed):
        raise TableConstructionError(
            f"branch {collapsed[0] + 1} spans less than the duplicate-collapse "
            f"tolerance {tol_abs:g}; lower value_tol or merge the branch"
        )

    branches = np.arange(1, p.n_branches + 1)
    midpoints = 0.5 * values[:-1] + 0.5 * values[1:]
    covering = layer_membership(midpoints[:, None], branches, p)
    uncovered = ~covering.any(axis=1)
    if uncovered.any():
        raise TableConstructionError(
            f"no branch covers the interval around {midpoints[np.argmax(uncovered)]}"
        )

    # Partition point j is a minimum when the map falls into it (or, at
    # the left end, rises out of it).
    is_min = np.concatenate([[p.lambdas[0] > 0], p.lambdas < 0])
    is_end = np.zeros(len(ga), dtype=bool)
    is_end[[0, -1]] = True

    def per_cluster(mask):
        return np.bincount(member_of[mask], minlength=len(values))

    # Regular preimages live in branches not bounded by a member of a
    # cluster; in a bounded branch the cluster value is the critical
    # point itself, already counted among the extrema.
    cluster = np.arange(len(values))[:, None]
    bounded = (member_of[:-1] == cluster) | (member_of[1:] == cluster)
    inside = layer_membership(values[:, None], branches, p)
    counts = np.column_stack([
        per_cluster(is_min & ~is_end), per_cluster(~is_min & ~is_end),
        (inside & ~bounded).sum(axis=1),
        per_cluster(is_min & is_end), per_cluster(~is_min & is_end)])
    return LayerTable(values=values, covering=covering, counts=counts)


def transition_check(table: LayerTable) -> bool:
    """Verify the preimage-count relations at every critical value.

    Crossing the i-th critical value, the number of covering branches
    just above equals regular + 2*interior_minima + endpoint_minima and
    the number just below equals regular + 2*interior_maxima +
    endpoint_maxima, with zero branches beyond either end of the range.
    Equivalently the count changes by 2*(interior minima - interior
    maxima) + endpoint one-sided contributions on the way up.
    """
    sizes = table.covering.sum(axis=1)
    above, below = np.append(sizes, 0), np.insert(sizes, 0, 0)
    imin, imax, regular, emin, emax = table.counts.T
    return (np.array_equal(above, regular + 2 * imin + emin)
            and np.array_equal(below, regular + 2 * imax + emax))
