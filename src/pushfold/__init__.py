"""Pushforward densities of piecewise strictly monotone maps.

Given a random input X on [alpha, beta] and a continuous map g that is
strictly monotone between finitely many interior extrema, this package
computes the density of Y = g(X) without sampling: the sampled graph of
g is split into monotone branches, unfolded into a single increasing
map whose piecewise-linear inverse exists globally, and the output
density is assembled per interval between critical values by summing
the covering branches' contributions.  A Monte Carlo histogram baseline
and comparison metrics are included for validation.
"""

from .density import (
    DENSITY_KINDS,
    DensityCurve,
    DensitySpec,
    SinPlusTwo,
    TableDensity,
    Uniform,
    pushforward_cdf,
    pushforward_density,
)
from .errors import (
    BranchError,
    ConfigError,
    DegenerateInputError,
    DivergenceError,
    NumericalError,
    RangeError,
    TableConstructionError,
    UnfoldError,
)
from .maps import (
    MAP_KINDS,
    Duffing,
    GridSpec,
    Logistic,
    MapDefinition,
    Oscillator,
    Pendulum,
    SampledMap,
    TableMap,
    eval_map,
    integrate_ivp,
    sample_map,
    table_from_csv,
)
from .oracle import (
    ComparisonMetrics,
    Histogram,
    InverseCdfSampler,
    McConfig,
    compare,
    mc_density,
)
from .partition import (
    PREIMAGE_KINDS,
    LayerTable,
    MonotonePartition,
    build_layer_table,
    detect_extrema,
    layer_membership,
    transition_check,
    u_of_y,
)
from .unfold import UnfoldedMap, build_unfolded, eta_derivative, eta_eval

__version__ = "0.1.0"
