"""Map definitions and uniform-grid sampling.

Every transformation in scope is represented by a small frozen dataclass:
closed-form maps (iterated logistic, driven oscillator), time-t projections
of second-order initial value problems (integrated with classical
fixed-step RK4), and explicit lookup tables for maps produced by any
external solver.  ``eval_map`` dispatches over the variants and accepts
scalars or numpy arrays; ``sample_map`` evaluates a definition on a
uniform grid.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DivergenceError

# Slack applied when deciding how many fixed steps fit into t_final, so
# that e.g. t_final=5, step=5/300 yields exactly 300 steps despite
# floating-point division noise.
_STEP_COUNT_SLACK = 1e-9


@dataclass(frozen=True)
class GridSpec:
    """Uniform subdivision of a map's domain into ``n_div`` subintervals."""

    n_div: int

    def __post_init__(self):
        # three consecutive samples are needed for extremum detection
        if self.n_div < 4:
            raise ValueError(f"n_div must be >= 4, got {self.n_div}")


@dataclass(frozen=True, eq=False)
class SampledMap:
    """One map evaluated on a uniform grid: (x_i, g(x_i)) plus range data."""

    xs: np.ndarray
    ys: np.ndarray
    alpha: float
    beta: float
    g_min: float
    g_max: float

    def __post_init__(self):
        self.xs.setflags(write=False)
        self.ys.setflags(write=False)

    @property
    def n_div(self) -> int:
        return len(self.xs) - 1


@dataclass(frozen=True)
class MapDefinition:
    """Base for all map variants; holds the domain [alpha, beta]."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not self.alpha < self.beta:
            raise ValueError(f"need alpha < beta, got [{self.alpha}, {self.beta}]")


@dataclass(frozen=True)
class Logistic(MapDefinition):
    """k-fold composition of the quadratic growth map rate*x*(1-x)."""

    rate: float = 3.9
    iterations: int = 1

    def __post_init__(self):
        super().__post_init__()
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if not 0.0 < self.rate <= 4.0:
            raise ValueError("rate must lie in (0, 4]")


@dataclass(frozen=True)
class Oscillator(MapDefinition):
    """Driven harmonic position map gain*x + amplitude*cos(omega*(time + x)).

    The random input enters as a phase shift of the cosine; at fixed
    evaluation time the map folds the phase interval several times once
    omega*(beta - alpha) exceeds a period.
    """

    gain: float = 1.0
    amplitude: float = 1.0
    omega: float = 1.0
    time: float = 0.0


@dataclass(frozen=True)
class Duffing(MapDefinition):
    """Position after t_final of y'' = -4 y^3 with y(0)=0, y'(0)=x."""

    t_final: float = 5.0
    step: float = 5.0 / 300.0

    def __post_init__(self):
        super().__post_init__()
        if self.step <= 0 or self.t_final <= 0:
            raise ValueError("step and t_final must be positive")


@dataclass(frozen=True)
class Pendulum(MapDefinition):
    """Position after t_final of y'' = -sin(y) with y(0)=0, y'(0)=x."""

    t_final: float = 18.0
    step: float = 18.0 / 200.0

    def __post_init__(self):
        super().__post_init__()
        if self.step <= 0 or self.t_final <= 0:
            raise ValueError("step and t_final must be positive")


@dataclass(frozen=True, eq=False)
class TableMap(MapDefinition):
    """Map given by explicit samples, evaluated by linear interpolation."""

    xs: np.ndarray = field(default_factory=lambda: np.array([0.0, 1.0]))
    ys: np.ndarray = field(default_factory=lambda: np.array([0.0, 1.0]))

    def __post_init__(self):
        if not (np.isfinite(self.xs).all() and np.isfinite(self.ys).all()):
            raise ValueError("table values must be finite")
        super().__post_init__()
        if len(self.xs) != len(self.ys) or len(self.xs) < 2:
            raise ValueError("table needs matching x/y columns of length >= 2")
        if not np.all(np.diff(self.xs) > 0):
            raise ValueError("table x values must be strictly increasing")
        if self.xs[0] != self.alpha or self.xs[-1] != self.beta:
            raise ValueError("table samples must span [alpha, beta] exactly")
        self.xs.setflags(write=False)
        self.ys.setflags(write=False)

    @classmethod
    def from_samples(cls, xs, ys) -> "TableMap":
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        return cls(alpha=float(xs[0]), beta=float(xs[-1]), xs=xs, ys=ys)


def table_from_csv(path) -> TableMap:
    """Load a TableMap from a two-column ``x,y`` CSV with a header row."""
    xs, ys = [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)  # header
        for row in reader:
            if not row:
                continue
            xs.append(float(row[0]))
            ys.append(float(row[1]))
    return TableMap.from_samples(xs, ys)


def logistic_iterate(rate: float, iterations: int, x):
    """Apply the quadratic growth map ``rate*x*(1-x)`` ``iterations`` times."""
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    if not 0.0 < rate <= 4.0:
        raise ValueError("rate must lie in (0, 4]")
    xa = np.asarray(x, dtype=float)
    if (xa < 0.0).any() or (xa > 1.0).any():
        raise ValueError("state must lie in [0, 1]")
    y = xa
    for _ in range(iterations):
        y = rate * y * (1.0 - y)
    return float(y) if np.isscalar(x) else y


def oscillator_map(gain: float, amplitude: float, omega: float, time: float, x):
    """Evaluate gain*x + amplitude*cos(omega*(time + x))."""
    xa = np.asarray(x, dtype=float)
    y = gain * xa + amplitude * np.cos(omega * (time + xa))
    return float(y) if np.isscalar(x) else y


def _acceleration(system):
    if isinstance(system, Duffing):
        return lambda y: -4.0 * y * y * y
    if isinstance(system, Pendulum):
        return lambda y: -np.sin(y)
    raise TypeError(f"no integrator for {type(system).__name__}")


def step_count(t_final: float, step: float) -> int:
    """Number of equal RK4 steps: ceil(t_final/step) with slack so that
    an exact division is not inflated by float noise."""
    return max(1, math.ceil(t_final / step - _STEP_COUNT_SLACK))


def integrate_ivp(system, y0, v0, t_final: float, step: float):
    """Integrate y'=v, v'=a(y) to t_final with classical fixed-step RK4.

    If t_final/step is not an integer the step is shrunk so that
    ceil(t_final/step) equal steps land exactly on t_final.  Works
    elementwise on arrays of initial conditions.  Raises
    DivergenceError (with the failing time) if the state leaves the
    representable range.
    """
    if step <= 0 or t_final <= 0:
        raise ValueError("step and t_final must be positive")
    accel = _acceleration(system)
    scalar = np.isscalar(y0) and np.isscalar(v0)
    y = np.atleast_1d(np.asarray(y0, dtype=float)).copy()
    v = np.atleast_1d(np.asarray(v0, dtype=float)).copy()
    n_steps = step_count(t_final, step)
    h = t_final / n_steps
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n_steps):
            k1y, k1v = v, accel(y)
            y2 = y + (0.5 * h) * k1y
            k2y, k2v = v + (0.5 * h) * k1v, accel(y2)
            y3 = y + (0.5 * h) * k2y
            k3y, k3v = v + (0.5 * h) * k2v, accel(y3)
            y4 = y + h * k3y
            k4y, k4v = v + h * k3v, accel(y4)
            y = y + (h / 6.0) * (k1y + 2.0 * k2y + 2.0 * k3y + k4y)
            v = v + (h / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
            if not (np.isfinite(y).all() and np.isfinite(v).all()):
                raise DivergenceError((i + 1) * h)
    if scalar:
        return float(y[0]), float(v[0])
    return y, v


def eval_map(map_def: MapDefinition, x):
    """Evaluate a map definition at x (scalar or array) inside its domain."""
    xa = np.asarray(x, dtype=float)
    if (xa < map_def.alpha).any() or (xa > map_def.beta).any():
        raise ValueError(
            f"x outside domain [{map_def.alpha}, {map_def.beta}]"
        )
    if isinstance(map_def, Logistic):
        return logistic_iterate(map_def.rate, map_def.iterations, x)
    if isinstance(map_def, Oscillator):
        return oscillator_map(
            map_def.gain, map_def.amplitude, map_def.omega, map_def.time, x
        )
    if isinstance(map_def, (Duffing, Pendulum)):
        y, _ = integrate_ivp(
            map_def, np.zeros_like(xa), xa, map_def.t_final, map_def.step
        )
        return float(np.asarray(y).reshape(-1)[0]) if np.isscalar(x) else y
    if isinstance(map_def, TableMap):
        y = np.interp(xa, map_def.xs, map_def.ys)
        return float(y) if np.isscalar(x) else y
    raise TypeError(f"unknown map variant {type(map_def).__name__}")


def analytic_derivative(map_def: MapDefinition):
    """Return dg/dx as a callable for closed-form variants, else None."""
    if isinstance(map_def, Logistic):

        def deriv(x):
            xa = np.asarray(x, dtype=float)
            y = xa
            d = np.ones_like(xa)
            for _ in range(map_def.iterations):
                d = d * map_def.rate * (1.0 - 2.0 * y)
                y = map_def.rate * y * (1.0 - y)
            return d

        return deriv
    if isinstance(map_def, Oscillator):

        def deriv(x):
            xa = np.asarray(x, dtype=float)
            return map_def.gain - map_def.amplitude * map_def.omega * np.sin(
                map_def.omega * (map_def.time + xa)
            )

        return deriv
    return None


def sample_map(map_def: MapDefinition, grid: GridSpec) -> SampledMap:
    """Evaluate a map on the uniform grid and record its sampled range."""
    xs = np.linspace(map_def.alpha, map_def.beta, grid.n_div + 1)
    ys = np.asarray(eval_map(map_def, xs), dtype=float)
    return SampledMap(
        xs=xs,
        ys=ys,
        alpha=map_def.alpha,
        beta=map_def.beta,
        g_min=float(ys.min()),
        g_max=float(ys.max()),
    )
