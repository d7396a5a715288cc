"""Piecewise-monotone structure of a sampled map.

``detect_extrema`` locates the monotone branches of a sampled map from the
sign-change rule on first differences, producing a ``MonotonePartition``:
the branch boundaries, the signed image increments of each branch, and
their cumulative absolute sums (the coordinates of the unfolded range).

``build_layer_table`` then organizes the branch-boundary images into the
sorted set of critical values, the index set of branches covering each
open interval between consecutive critical values, and a classification
of every boundary point (interior minimum/maximum, regular crossing,
endpoint minimum/maximum).  ``transition_check`` verifies the
combinatorial count relations that tie adjacent intervals together
across each critical value.

Branch indices are 1-based throughout, matching the layer-table sets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BranchError,
    DegenerateInputError,
    RangeError,
    TableConstructionError,
)
from .maps import SampledMap

# Branches whose image increment is below MERGE_TOL * (g_max - g_min) are
# considered grid noise and fused into a neighbor.
DEFAULT_MERGE_TOL = 1e-9

# Critical values closer than VALUE_TOL * (g_max - g_min) collapse to one
# entry.  Distinct extrema sharing a true image land on different grid
# points and split by O(h^2) in the sampled values, so this sits well
# above grid-induced splitting and well below genuine value gaps.
DEFAULT_VALUE_TOL = 1e-3


@dataclass(frozen=True, eq=False)
class MonotonePartition:
    """Branch decomposition of a sampled map.

    alphas[j] are the grid abscissae bounding the branches (endpoints
    plus detected extrema), g_alphas their images, lambdas[j-1] the
    signed image increment of branch j, masses the cumulative absolute
    increments (masses[0] = 0), and total_variation their final sum.
    """

    alphas: np.ndarray
    alpha_indices: np.ndarray
    g_alphas: np.ndarray
    lambdas: np.ndarray
    masses: np.ndarray
    total_variation: float

    def __post_init__(self):
        for arr in (self.alphas, self.alpha_indices, self.g_alphas,
                    self.lambdas, self.masses):
            arr.setflags(write=False)

    @property
    def n_branches(self) -> int:
        return len(self.lambdas)


@dataclass(frozen=True)
class BoundaryClassification:
    """Counts of preimage types of one critical value."""

    interior_minima: int = 0
    interior_maxima: int = 0
    regular: int = 0
    endpoint_minima: int = 0
    endpoint_maxima: int = 0

    @property
    def total(self) -> int:
        return (self.interior_minima + self.interior_maxima + self.regular
                + self.endpoint_minima + self.endpoint_maxima)


@dataclass(frozen=True, eq=False)
class LayerTable:
    """Sorted critical values with per-interval branch index sets.

    values[i] is the i-th critical value (values[0] = g_min,
    values[-1] = g_max); midpoints[i] the center of the open interval
    (values[i], values[i+1]); index_sets[i] the 1-based branches whose
    image covers that interval; classifications[i] the preimage
    classification of values[i].
    """

    values: np.ndarray
    midpoints: np.ndarray
    index_sets: tuple
    classifications: tuple
    value_tol_abs: float

    def __post_init__(self):
        self.values.setflags(write=False)
        self.midpoints.setflags(write=False)

    @property
    def g_min(self) -> float:
        return float(self.values[0])

    @property
    def g_max(self) -> float:
        return float(self.values[-1])


def _sign_change_bounds(ys: np.ndarray) -> list:
    """Grid endpoints plus the points flagged by the sign-change rule, with
    middles of equal-sample runs dropped first."""
    plateau = np.zeros(len(ys), dtype=bool)
    plateau[1:-1] = (ys[:-2] == ys[1:-1]) & (ys[1:-1] == ys[2:])
    kept = np.flatnonzero(~plateau)
    d = np.diff(ys[kept])
    flagged = [0]
    for t in (np.flatnonzero(d[:-1] * d[1:] <= 0.0) + 1).tolist():
        if t > 1 and flagged[-1] == t - 1 and d[t - 1] == 0.0:
            # flat pair: the earlier index already represents it
            continue
        flagged.append(t)
    return kept[flagged + [len(kept) - 1]].tolist()


def detect_extrema(sm: SampledMap, merge_tol: float = DEFAULT_MERGE_TOL) -> MonotonePartition:
    """Locate branch boundaries of a sampled map.

    An interior grid point is flagged when the products of adjacent
    first differences is <= 0; on an exact tie produced by a flat pair
    the earlier index wins.  Flagged points bounding an image increment
    smaller than merge_tol * (g_max - g_min), and points between
    same-direction branches, are then fused away.
    """
    ys = sm.ys
    value_range = sm.g_max - sm.g_min
    if value_range == 0.0:
        raise DegenerateInputError("map is constant on the whole grid")
    tol = merge_tol * value_range

    idx = _sign_change_bounds(ys)

    # Fuse spurious branches until the partition is alternating and every
    # branch moves by more than the merge tolerance.
    while True:
        lam = np.diff(ys[idx])
        kill = None
        for j in range(len(lam)):
            if abs(lam[j]) < tol:
                # absorb the flat branch into a neighbor: drop whichever
                # of its bounds is interior
                if j + 1 < len(idx) - 1:
                    kill = j + 1
                elif j > 0:
                    kill = j
                break
        if kill is None:
            for j in range(len(lam) - 1):
                if lam[j] * lam[j + 1] > 0.0:
                    kill = j + 1
                    break
        if kill is None:
            break
        if len(idx) <= 2:
            raise DegenerateInputError("all branches merged away")
        del idx[kill]

    lam = np.diff(ys[idx])
    if len(lam) == 0 or np.all(np.abs(lam) < tol):
        raise DegenerateInputError("all branches merged away")
    masses = np.concatenate([[0.0], np.cumsum(np.abs(lam))])
    indices = np.asarray(idx, dtype=int)
    return MonotonePartition(
        alphas=sm.xs[indices].copy(),
        alpha_indices=indices,
        g_alphas=ys[indices].copy(),
        lambdas=lam,
        masses=masses,
        total_variation=float(masses[-1]),
    )


def layer_membership(y: float, j: int, p: MonotonePartition, strict: bool = True) -> bool:
    """True iff y lies inside the image interval of branch j (1-based).

    With ``strict`` (the default) the branch-endpoint images are
    excluded; with ``strict=False`` they are included.
    """
    if not 1 <= j <= p.n_branches:
        raise BranchError(f"branch index {j} outside 1..{p.n_branches}")
    lam = p.lambdas[j - 1]
    t = (y - p.g_alphas[j - 1]) * np.sign(lam)
    if strict:
        return bool(0.0 < t < abs(lam))
    return bool(0.0 <= t <= abs(lam))


def u_of_y(y: float, j: int, p: MonotonePartition) -> float:
    """Unfolded coordinate of the branch-j preimage of y.

    Defined for y in the closed image interval of branch j; the branch
    start image maps to masses[j-1], the end image to masses[j].
    """
    if not layer_membership(y, j, p, strict=False):
        raise BranchError(f"y={y} outside the image of branch {j}")
    lam = p.lambdas[j - 1]
    return float(p.masses[j - 1] + (y - p.g_alphas[j - 1]) * np.sign(lam))


def _local_kind(p: MonotonePartition, j: int) -> str:
    """Classify partition point j as 'min' or 'max' of the map."""
    k = p.n_branches
    if j == 0:
        return "min" if p.lambdas[0] > 0 else "max"
    if j == k:
        return "min" if p.lambdas[k - 1] < 0 else "max"
    return "min" if p.lambdas[j - 1] < 0 else "max"


def build_layer_table(p: MonotonePartition, value_tol: float = DEFAULT_VALUE_TOL) -> LayerTable:
    """Sort, deduplicate and classify the branch-boundary images.

    Boundary images within value_tol * (g_max - g_min) of each other
    collapse into a single critical value (its representative is the
    cluster mean, except that the extreme clusters keep the exact
    sampled g_min / g_max).  Index sets are evaluated once per interval
    at its midpoint; by constancy of the covering branches on each open
    interval this determines them everywhere.
    """
    ga = p.g_alphas
    g_min = float(ga.min())
    g_max = float(ga.max())
    tol_abs = value_tol * (g_max - g_min)

    order = np.argsort(ga, kind="stable")
    sorted_vals = ga[order]
    clusters = [[0]]
    for t in range(1, len(sorted_vals)):
        if sorted_vals[t] - sorted_vals[clusters[-1][0]] > tol_abs:
            clusters.append([t])
        else:
            clusters[-1].append(t)

    values = np.empty(len(clusters))
    member_of = np.empty(len(ga), dtype=int)
    for ci, members in enumerate(clusters):
        vals = sorted_vals[members]
        if ci == 0:
            values[ci] = g_min
        elif ci == len(clusters) - 1:
            values[ci] = g_max
        else:
            values[ci] = vals.mean()
        for t in members:
            member_of[order[t]] = ci

    # A branch whose two boundary images collapse into one cluster cannot
    # be classified as isolated critical points: the collapse is
    # inconsistent at this tolerance.
    for j in range(p.n_branches):
        if member_of[j] == member_of[j + 1]:
            raise TableConstructionError(
                f"branch {j + 1} spans less than the duplicate-collapse "
                f"tolerance {tol_abs:g}; lower value_tol or merge the branch"
            )

    midpoints = 0.5 * (values[:-1] + values[1:])
    index_sets = []
    for c in midpoints:
        covering = frozenset(
            j for j in range(1, p.n_branches + 1) if layer_membership(float(c), j, p)
        )
        if not covering:
            raise TableConstructionError(
                f"no branch covers the interval around {c}"
            )
        index_sets.append(covering)

    classifications = []
    for ci in range(len(values)):
        counts = {"interior_minima": 0, "interior_maxima": 0,
                  "endpoint_minima": 0, "endpoint_maxima": 0}
        for j in range(p.n_branches + 1):
            if member_of[j] != ci:
                continue
            kind = _local_kind(p, j)
            where = "endpoint" if j in (0, p.n_branches) else "interior"
            counts[f"{where}_{'minima' if kind == 'min' else 'maxima'}"] += 1
        # Regular preimages live in branches not bounded by a member of
        # this cluster; in a bounded branch the cluster value is the
        # critical point itself, already counted above.
        regular = sum(
            1 for j in range(1, p.n_branches + 1)
            if member_of[j - 1] != ci and member_of[j] != ci
            and layer_membership(float(values[ci]), j, p)
        )
        classifications.append(BoundaryClassification(regular=regular, **counts))

    return LayerTable(
        values=values,
        midpoints=midpoints,
        index_sets=tuple(index_sets),
        classifications=tuple(classifications),
        value_tol_abs=float(tol_abs),
    )


def index_set(y: float, table: LayerTable, p: MonotonePartition) -> frozenset:
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
        return frozenset(
            j for j in range(1, p.n_branches + 1)
            if layer_membership(b, j, p, strict=False)
        )
    i = int(np.searchsorted(table.values, y, side="right")) - 1
    i = min(i, len(table.index_sets) - 1)
    return table.index_sets[i]


def transition_check(table: LayerTable) -> bool:
    """Verify the preimage-count relations at every critical value.

    Crossing the i-th critical value, the number of covering branches
    just above equals regular + 2*interior_minima + endpoint_minima and
    the number just below equals regular + 2*interior_maxima +
    endpoint_maxima, with zero branches beyond either end of the range.
    Equivalently the count changes by 2*(interior minima - interior
    maxima) + endpoint one-sided contributions on the way up.
    """
    ell = len(table.values) - 1
    for i in range(ell + 1):
        cls = table.classifications[i]
        below = len(table.index_sets[i - 1]) if i >= 1 else 0
        above = len(table.index_sets[i]) if i <= ell - 1 else 0
        if above != cls.regular + 2 * cls.interior_minima + cls.endpoint_minima:
            return False
        if below != cls.regular + 2 * cls.interior_maxima + cls.endpoint_maxima:
            return False
    return True
