"""Map definitions and uniform-grid sampling.

Every transformation in scope is represented by a small frozen dataclass:
closed-form maps (iterated logistic, driven oscillator), time-t projections
of second-order initial value problems (integrated with classical
fixed-step RK4), and explicit lookup tables for maps produced by any
external solver.  Each variant evaluates itself on arrays; ``eval_map``
checks the domain and accepts scalars or numpy arrays; ``sample_map``
evaluates a definition on a uniform grid.  ``MAP_KINDS`` names the
variants for the config file.

A second-order variant defines ``accel(y, out)``: it writes y'' at
``y`` into the preallocated array ``out`` and returns it, leaving ``y``
unchanged.  ``integrate_ivp`` allocates its stage buffers once per call
and runs every RK4 step in place on them.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError

# Slack applied when deciding how many fixed steps fit into t_final, so
# that e.g. t_final=5, step=5/300 yields exactly 300 steps despite
# floating-point division noise.
_STEP_COUNT_SLACK = 1e-9

# Most steps one map evaluation may take: RK4 steps of an integration
# (the reference configs take 200-300) or logistic iterations.  A huge
# t_final / step or iteration count would otherwise run without end.
MAX_STEPS = 10**6


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
    g_min: float
    g_max: float

    def __post_init__(self):
        # xs stays writable: UnfoldedMap shares it as knots_x, and
        # np.interp copies a read-only argument on every call
        self.ys.setflags(write=False)


@dataclass(frozen=True)
class MapDefinition:
    """Base for all map variants; holds the domain [alpha, beta].

    Each variant evaluates itself on a float array inside the domain in
    ``_eval``; a closed-form variant also defines ``derivative(x)``,
    dg/dx, which the analytic Jacobian uses.
    """

    alpha: float
    beta: float

    derivative = None

    def __post_init__(self):
        if not self.alpha < self.beta:
            raise ValueError(f"need alpha < beta, got [{self.alpha}, {self.beta}]")


@dataclass(frozen=True)
class Logistic(MapDefinition):
    """k-fold composition of the quadratic growth map rate*x*(1-x)."""

    rate: float
    iterations: int

    def __post_init__(self):
        super().__post_init__()
        if not 1 <= self.iterations <= MAX_STEPS:
            raise ValueError(f"iterations must lie in 1..{MAX_STEPS}, got {self.iterations}")
        if not 0.0 < self.rate <= 4.0:
            raise ValueError("rate must lie in (0, 4]")
        if self.alpha < 0.0 or self.beta > 1.0:
            raise ValueError("the logistic domain must lie in [0, 1]")

    def _eval(self, x):
        # rate*y*(1-y) as (rate*y)*(1-y), in place on two buffers
        y, t = x.copy(), np.empty_like(x)
        for _ in range(self.iterations):
            np.subtract(1.0, y, out=t)
            np.multiply(y, self.rate, out=y)
            np.multiply(y, t, out=y)
        return y

    def derivative(self, x):
        y = np.asarray(x, dtype=float)
        d = np.ones_like(y)
        for _ in range(self.iterations):
            d = d * self.rate * (1.0 - 2.0 * y)
            y = self.rate * y * (1.0 - y)
        return d


@dataclass(frozen=True)
class Oscillator(MapDefinition):
    """Driven harmonic position map gain*x + amplitude*cos(omega*(time + x)).

    The random input enters as a phase shift of the cosine; at fixed
    evaluation time the map folds the phase interval several times once
    omega*(beta - alpha) exceeds a period.
    """

    gain: float
    amplitude: float
    omega: float
    time: float

    def _eval(self, x):
        return self.gain * x + self.amplitude * np.cos(self.omega * (self.time + x))

    def derivative(self, x):
        phase = self.omega * (self.time + np.asarray(x, dtype=float))
        return self.gain - self.amplitude * self.omega * np.sin(phase)


@dataclass(frozen=True)
class SecondOrder(MapDefinition):
    """Position after t_final of y'' = accel(y) with y(0)=0, y'(0)=x.

    Subclasses define ``accel(y, out)``, which fills ``out`` and returns it.
    """

    t_final: float
    step: float

    def __post_init__(self):
        super().__post_init__()
        if self.step <= 0 or self.t_final <= 0:
            raise ValueError("step and t_final must be positive")
        step_count(self.t_final, self.step)  # raises past MAX_STEPS

    def _eval(self, x):
        y, _ = integrate_ivp(self, np.zeros_like(x), x, self.t_final, self.step)
        return y


class Duffing(SecondOrder):
    """Position after t_final of y'' = -4 y^3 with y(0)=0, y'(0)=x."""

    def accel(self, y, out):
        # ((-4 * y) * y) * y, in that order
        np.multiply(y, -4.0, out=out)
        np.multiply(out, y, out=out)
        return np.multiply(out, y, out=out)


class Pendulum(SecondOrder):
    """Position after t_final of y'' = -sin(y) with y(0)=0, y'(0)=x."""

    def accel(self, y, out):
        return np.negative(np.sin(y, out=out), out=out)


def check_table(alpha: float, beta: float, xs, values) -> None:
    """Raise ValueError unless the columns are a table on [alpha, beta]:
    finite, of matching length of at least two rows, with x strictly
    increasing from alpha to beta."""
    if not (np.isfinite(xs).all() and np.isfinite(values).all()):
        raise ValueError("table values must be finite")
    if len(xs) != len(values) or len(xs) < 2:
        raise ValueError(f"table needs matching x and value columns of at least "
                         f"two rows, got {len(xs)} and {len(values)}")
    if not np.all(np.diff(xs) > 0):
        raise ValueError("table x values must be strictly increasing")
    if xs[0] != alpha or xs[-1] != beta:
        raise ValueError(f"table spans [{xs[0]:g}, {xs[-1]:g}] but the domain "
                         f"is [{alpha:g}, {beta:g}]")


@dataclass(frozen=True, eq=False)
class TableMap(MapDefinition):
    """Map given by explicit samples, evaluated by linear interpolation."""

    xs: np.ndarray
    ys: np.ndarray

    def __post_init__(self):
        check_table(self.alpha, self.beta, self.xs, self.ys)
        super().__post_init__()
        # the columns stay writable: np.interp copies a read-only
        # argument on every eval_map call

    def _eval(self, x):
        return np.interp(x, self.xs, self.ys)

    @classmethod
    def from_samples(cls, xs, ys) -> "TableMap":
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        return cls(alpha=float(xs[0]), beta=float(xs[-1]), xs=xs, ys=ys)


# config kind name -> map variant
MAP_KINDS = {"logistic": Logistic, "oscillator": Oscillator, "duffing": Duffing,
             "pendulum": Pendulum, "table": TableMap}


def _is_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def table_from_csv(path) -> TableMap:
    """Load a TableMap from a two-column ``x,y`` CSV with a header row.

    Raises ValueError when the first row is two numbers, as a file
    without its header row would otherwise lose its first sample.
    """
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if rows and len(rows[0]) >= 2 and all(map(_is_float, rows[0][:2])):
        raise ValueError(f"table file {path!r} has no header row: its first "
                         f"row {','.join(rows[0])!r} is data")
    rows = [row for row in rows[1:] if row]
    if not rows or min(map(len, rows)) < 2:
        raise ValueError(f"table file {path!r} needs data rows of two fields")
    return TableMap.from_samples([float(row[0]) for row in rows],
                                 [float(row[1]) for row in rows])


def step_count(t_final: float, step: float) -> int:
    """Number of equal RK4 steps: ceil(t_final/step) with slack so that
    an exact division is not inflated by float noise.

    Raises ValueError when that is more than MAX_STEPS, or when
    t_final / step is not a number.
    """
    ratio = t_final / step
    if not ratio - _STEP_COUNT_SLACK <= MAX_STEPS:
        raise ValueError(f"t_final / step overflows the step count: {ratio!r} "
                         f"is more than {MAX_STEPS} RK4 steps")
    return max(1, math.ceil(ratio - _STEP_COUNT_SLACK))


def integrate_ivp(system, y0, v0, t_final: float, step: float):
    """Integrate y'=v, v'=system.accel(y) to t_final with classical fixed-step RK4.

    If t_final/step is not an integer the step is shrunk so that
    ceil(t_final/step) equal steps land exactly on t_final.  Works
    elementwise on arrays of initial conditions.  Raises
    DivergenceError (with the failing time) if the state leaves the
    representable range.

    The step runs in place on stage buffers allocated once per call;
    ``system.accel(y, out)`` writes into ``out``.  Every stage keeps the
    textbook expression and operand order, ``y + (h/2)*k1y`` and
    ``y + (h/6)*(((k1 + 2*k2) + 2*k3) + k4)``, so the result is the
    same to the bit as evaluating those expressions with temporaries.
    """
    if step <= 0 or t_final <= 0:
        raise ValueError("step and t_final must be positive")
    accel = system.accel
    scalar = np.isscalar(y0) and np.isscalar(v0)
    y, v = (a.copy() for a in np.broadcast_arrays(
        np.atleast_1d(np.asarray(y0, dtype=float)),
        np.atleast_1d(np.asarray(v0, dtype=float))))
    # stage position, stage dy, stage dv, and the weighted sums of dy, dv
    yt, ky, kv, sy, sv = (np.empty_like(y) for _ in range(5))
    finite = np.empty(y.shape, dtype=bool)
    n_steps = step_count(t_final, step)
    h = t_final / n_steps
    half, sixth = 0.5 * h, h / 6.0
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n_steps):
            # k1 = (v, accel(y)); sv holds the running dv sum from here
            accel(y, sv)
            # k2 = (v + half*k1v, accel(y + half*v))
            np.add(y, np.multiply(v, half, out=yt), out=yt)
            np.add(v, np.multiply(sv, half, out=ky), out=ky)
            accel(yt, kv)
            np.add(v, np.multiply(ky, 2.0, out=sy), out=sy)
            # k3 = (v + half*k2v, accel(y + half*k2y))
            np.add(y, np.multiply(ky, half, out=yt), out=yt)
            np.add(v, np.multiply(kv, half, out=ky), out=ky)
            np.add(sv, np.multiply(kv, 2.0, out=kv), out=sv)
            accel(yt, kv)
            # k4 = (v + h*k3v, accel(y + h*k3y))
            np.add(y, np.multiply(ky, h, out=yt), out=yt)
            np.add(sy, np.multiply(ky, 2.0, out=ky), out=sy)
            np.add(v, np.multiply(kv, h, out=ky), out=ky)
            np.add(sv, np.multiply(kv, 2.0, out=kv), out=sv)
            accel(yt, kv)
            np.add(sy, ky, out=sy)
            np.add(sv, kv, out=sv)
            # the state advances only after every stage has read it
            np.add(y, np.multiply(sy, sixth, out=sy), out=y)
            np.add(v, np.multiply(sv, sixth, out=sv), out=v)
            if not (np.isfinite(y, out=finite).all()
                    and np.isfinite(v, out=finite).all()):
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
    y = map_def._eval(xa)
    return float(np.asarray(y).reshape(-1)[0]) if np.isscalar(x) else y


def sample_map(map_def: MapDefinition, grid: GridSpec) -> SampledMap:
    """Evaluate a map on the uniform grid and record its sampled range.

    Raises FloatingPointError naming the first grid point whose map
    value is not finite, or the range g_max - g_min if that overflows.
    """
    xs = np.linspace(map_def.alpha, map_def.beta, grid.n_div + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        ys = np.asarray(eval_map(map_def, xs), dtype=float)
    finite = np.isfinite(ys)
    if not finite.all():
        i = np.argmin(finite)
        raise FloatingPointError(
            f"g(x) = {float(ys[i])!r} is not finite at x = {float(xs[i])!r}")
    g_min, g_max = float(ys.min()), float(ys.max())
    if not math.isfinite(g_max - g_min):
        raise FloatingPointError(f"range g_max - g_min = {g_max - g_min!r} is not finite")
    return SampledMap(xs=xs, ys=ys, g_min=g_min, g_max=g_max)
