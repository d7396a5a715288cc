"""Unfolding a piecewise-monotone sampled map into a monotone one.

Shifting every increasing branch and reflecting every decreasing branch
stacks the branch images end to end, turning the sampled map into a
strictly increasing polyline from 0 to the total variation.  Its inverse
(evaluated here as a piecewise-linear interpolant through the grid
knots) maps unfolded coordinates back to abscissae, and the interpolant
slope supplies the Jacobian factor of the density formula.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import RangeError, UnfoldError
from .maps import SampledMap
from .partition import MonotonePartition

# Relative slack accepted beyond [0, total_variation] in inverse queries.
_END_SLACK = 1e-12

# Knot pairs per piece of the increase check, so that it takes no
# temporary as long as the grid.
_CHECK_PIECE = 8192


@dataclass(frozen=True, eq=False)
class UnfoldedMap:
    """Knots of the unfolded map; (knots_u[i], knots_x[i]) are the
    interpolation nodes of the inverse.  crease_us marks the images of
    interior branch boundaries, where the true inverse has vertical
    tangents that the interpolant caps at a grid-dependent slope.

    knots_u must increase strictly, so every interpolant segment has
    positive length; construction raises UnfoldError otherwise.
    """

    knots_u: np.ndarray
    knots_x: np.ndarray
    crease_us: np.ndarray

    def __post_init__(self):
        ku = self.knots_u
        if not all((np.diff(ku[i:i + _CHECK_PIECE + 1]) > 0.0).all()
                   for i in range(0, len(ku) - 1, _CHECK_PIECE)):
            raise UnfoldError(
                "unfolded knots are not strictly increasing; the sampled map "
                "has flat or non-monotone segments inside a branch"
            )
        # the knots stay writable: np.interp copies a read-only argument
        # on every eta_eval call, 1.6 MB per array at n_div = 200000
        self.crease_us.setflags(write=False)

    @property
    def total_variation(self) -> float:
        return float(self.knots_u[-1])


def build_unfolded(sm: SampledMap, p: MonotonePartition) -> UnfoldedMap:
    """Stack the branch images of a sampled map into one increasing run.

    Within branch j the unfolded value of a grid point is
    masses[j-1] + |g(x_i) - g at the branch start|, which telescopes to
    masses[j] at the branch end regardless of direction.
    """
    ku = np.empty_like(sm.ys)
    for j in range(p.n_branches):
        lo, hi = p.alpha_indices[j], p.alpha_indices[j + 1]
        # in place, so no temporary is as long as the branch
        seg = ku[lo:hi + 1]
        np.subtract(sm.ys[lo:hi + 1], p.g_alphas[j], out=seg)
        np.abs(seg, out=seg)
        np.add(seg, p.masses[j], out=seg)
    # on a grid that straddles an extremum the samples either side of it
    # can tie, so a branch opens or closes with a zero-length step; drop
    # the knot that is not the bound, and the segment that skips it still
    # spans the extremum
    bounds = p.alpha_indices[1:-1]
    drop = np.concatenate([bounds[ku[bounds + 1] == ku[bounds]] + 1,
                           bounds[ku[bounds - 1] == ku[bounds]] - 1])
    kx = sm.xs
    if len(drop):
        ku, kx = np.delete(ku, drop), np.delete(kx, drop)
    return UnfoldedMap(knots_u=ku, knots_x=kx, crease_us=p.masses[1:-1])


def _checked(um: UnfoldedMap, u) -> np.ndarray:
    """Queries as a float array, range-checked and clipped to
    [0, total_variation].

    One pass each for the smallest and largest query; fmin and fmax skip
    NaN, which passes through as NaN.  In-range queries come back as the
    array given, not a copy.
    """
    ua = np.atleast_1d(np.asarray(u, dtype=float))
    if not ua.size:
        return ua
    top = um.total_variation
    slack = _END_SLACK * top
    lo, hi = np.fmin.reduce(ua, axis=None), np.fmax.reduce(ua, axis=None)
    if lo < -slack or hi > top + slack:
        raise RangeError(f"u outside [0, {top}]")
    if lo < 0.0 or hi > top:
        return np.clip(ua, 0.0, top)
    return ua


def eta_eval(um: UnfoldedMap, u):
    """Inverse of the unfolded map by linear interpolation between knots.

    Exact at every knot; accepts a relative slack of 1e-12 beyond
    [0, total_variation] (clamped), raises RangeError further out.
    """
    x = np.interp(_checked(um, u), um.knots_u, um.knots_x)
    return float(x[0]) if np.isscalar(u) else x


def eta_derivative(um: UnfoldedMap, u):
    """Slope dx/du of the bracketing interpolant segment (nonnegative).

    The lookup is right-sided: on a knot the segment to its right
    applies; the top knot falls back to the last segment.
    """
    ua = _checked(um, u)
    ku, kx = um.knots_u, um.knots_x
    idx = np.searchsorted(ku, ua, side="right")
    idx -= 1
    np.clip(idx, 0, len(ku) - 2, out=idx)
    x0, u0 = kx[idx], ku[idx]
    idx += 1
    slope = (kx[idx] - x0) / (ku[idx] - u0)
    return float(slope[0]) if np.isscalar(u) else slope
