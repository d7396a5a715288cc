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


@dataclass(frozen=True, eq=False)
class UnfoldedMap:
    """Knots of the unfolded map; (knots_u[i], knots_x[i]) are the
    interpolation nodes of the inverse.  crease_us marks the images of
    interior branch boundaries, where the true inverse has vertical
    tangents that the interpolant caps at a grid-dependent slope."""

    knots_u: np.ndarray
    knots_x: np.ndarray
    total_variation: float
    crease_us: np.ndarray

    def __post_init__(self):
        self.knots_u.setflags(write=False)
        self.knots_x.setflags(write=False)
        self.crease_us.setflags(write=False)


def build_unfolded(sm: SampledMap, p: MonotonePartition) -> UnfoldedMap:
    """Stack the branch images of a sampled map into one increasing run.

    Within branch j the unfolded value of a grid point is
    masses[j-1] + |g(x_i) - g at the branch start|, which telescopes to
    masses[j] at the branch end regardless of direction.
    """
    ku = np.empty_like(sm.ys)
    for j in range(p.n_branches):
        lo, hi = p.alpha_indices[j], p.alpha_indices[j + 1]
        seg = slice(lo, hi + 1)
        ku[seg] = p.masses[j] + np.abs(sm.ys[seg] - p.g_alphas[j])
    if not np.all(np.diff(ku) > 0.0):
        raise UnfoldError(
            "unfolded knots are not strictly increasing; the sampled map "
            "has flat or non-monotone segments inside a branch"
        )
    return UnfoldedMap(
        knots_u=ku,
        knots_x=sm.xs.copy(),
        total_variation=p.total_variation,
        crease_us=p.masses[1:-1].copy(),
    )


def _bracket(um: UnfoldedMap, u):
    """Range-checked queries clipped to [0, total_variation], with the
    index of the interpolant segment bracketing each one.

    The lookup is right-sided: a query exactly on a knot uses the segment
    to its right; the top knot falls back to the last segment.
    """
    ua = np.atleast_1d(np.asarray(u, dtype=float))
    slack = _END_SLACK * um.total_variation
    if (ua < -slack).any() or (ua > um.total_variation + slack).any():
        raise RangeError(f"u outside [0, {um.total_variation}]")
    ua = np.clip(ua, 0.0, um.total_variation)
    idx = np.searchsorted(um.knots_u, ua, side="right") - 1
    return ua, np.clip(idx, 0, len(um.knots_u) - 2)


def eta_eval(um: UnfoldedMap, u):
    """Inverse of the unfolded map by linear interpolation between knots.

    Exact at every knot; accepts a relative slack of 1e-12 beyond
    [0, total_variation] (clamped), raises RangeError further out.
    """
    scalar = np.isscalar(u)
    ua, idx = _bracket(um, u)
    ku, kx = um.knots_u, um.knots_x
    x = kx[idx] + (ua - ku[idx]) * (kx[idx + 1] - kx[idx]) / (ku[idx + 1] - ku[idx])
    x = np.where(ua >= ku[-1], kx[-1], x)
    return float(x[0]) if scalar else x


def eta_derivative(um: UnfoldedMap, u):
    """Slope dx/du of the bracketing interpolant segment (nonnegative).

    On a knot the right segment's slope applies; at the top of the range
    the last segment's.
    """
    scalar = np.isscalar(u)
    ua, idx = _bracket(um, u)
    ku, kx = um.knots_u, um.knots_x
    du = ku[idx + 1] - ku[idx]
    if (du <= 0.0).any():
        raise UnfoldError("zero-length segment in unfolded knots")
    slope = (kx[idx + 1] - kx[idx]) / du
    return float(slope[0]) if scalar else slope
