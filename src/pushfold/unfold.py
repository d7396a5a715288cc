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
    tangents that the interpolant caps at a grid-dependent slope.

    knots_u must increase strictly, so every interpolant segment has
    positive length; construction raises UnfoldError otherwise.
    """

    knots_u: np.ndarray
    knots_x: np.ndarray
    crease_us: np.ndarray

    def __post_init__(self):
        if not np.all(np.diff(self.knots_u) > 0.0):
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
        seg = slice(lo, hi + 1)
        ku[seg] = p.masses[j] + np.abs(sm.ys[seg] - p.g_alphas[j])
    return UnfoldedMap(knots_u=ku, knots_x=sm.xs, crease_us=p.masses[1:-1])


def _checked(um: UnfoldedMap, u) -> np.ndarray:
    """Queries as a float array, range-checked and clipped to
    [0, total_variation]."""
    ua = np.atleast_1d(np.asarray(u, dtype=float))
    top = um.total_variation
    slack = _END_SLACK * top
    if (ua < -slack).any() or (ua > top + slack).any():
        raise RangeError(f"u outside [0, {top}]")
    return np.clip(ua, 0.0, top)


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
    idx = np.clip(np.searchsorted(ku, ua, side="right") - 1, 0, len(ku) - 2)
    slope = (kx[idx + 1] - kx[idx]) / (ku[idx + 1] - ku[idx])
    return float(slope[0]) if np.isscalar(u) else slope
