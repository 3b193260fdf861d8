"""Minimum-latency multi-hop routing between satellites scattered on a sphere.

The package models a constellation as a binomial point process on a sphere,
derives how many hops a latency-optimal route should use under a contact
(interruption) budget, searches concrete relay sequences through sampled
constellations, and estimates how close those discovered routes come to the
geometric optimum -- both in closed form and by Monte Carlo simulation.

Layout:

- :mod:`leoroute.geometry`      -- points on a sphere, chords, arcs, horizon.
- :mod:`leoroute.constellation` -- uniform satellite sampling, presets, I/O.
- :mod:`leoroute.analysis`      -- contact statistics and hop-count planning.
- :mod:`leoroute.routing`       -- route construction and repair strategies.
- :mod:`leoroute.efficiency`    -- closed-form efficiency approximations.
- :mod:`leoroute.experiments`   -- Monte Carlo cells, summary table, sweeps.
- :mod:`leoroute.cli`           -- the ``leoroute`` command line front end.
"""

from .analysis import (
    ContactMean,
    HopPlan,
    contact_cdf,
    contact_mean,
    contact_pdf,
    ideal_latency,
    iteration_bound,
    latency_floor,
    max_hop_angle,
    min_feasible_hops,
    min_sats_grid,
    min_sats_grid_minimum,
    min_sats_sufficient,
    n_min_ideal,
    plan_hops,
    reliable_angle,
)
from .constellation import (
    PRESET_PARAMS,
    Constellation,
    load_constellation,
    nearest,
    sample_bpp,
    save_constellation,
)
from .efficiency import (
    efficiency_binomial,
    efficiency_contour,
    mean_hop_span,
    mean_hop_stretch,
    measured_efficiency,
)
from .errors import (
    DegenerateArcError,
    InternalConsistencyError,
    InvalidInputError,
    NoCandidateError,
    RepairFailedError,
)
from .experiments import (
    CellAggregate,
    CellParams,
    SweepRecord,
    SweepSpec,
    Table1Result,
    TrialRecord,
    make_endpoints,
    run_cell,
    run_table1,
    run_trials,
    strategy_router,
    sweep,
    table1_rows,
    write_records_csv,
    write_records_json,
    write_table1_csv,
    write_table1_json,
)
from .geometry import (
    SpherePoint,
    chord_distance,
    dome_angle,
    great_arc,
    los_chord_limit,
    slerp,
)
from .routing import (
    Route,
    RouteStatus,
    arc_waypoints,
    hop_repair,
    route_equal_interval,
    route_max_stepsize,
    route_min_deflection,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "InvalidInputError",
    "DegenerateArcError",
    "NoCandidateError",
    "RepairFailedError",
    "InternalConsistencyError",
    # geometry
    "SpherePoint",
    "chord_distance",
    "dome_angle",
    "slerp",
    "great_arc",
    "los_chord_limit",
    # constellation
    "PRESET_PARAMS",
    "Constellation",
    "sample_bpp",
    "nearest",
    "save_constellation",
    "load_constellation",
    # analysis
    "HopPlan",
    "ContactMean",
    "max_hop_angle",
    "contact_cdf",
    "contact_pdf",
    "contact_mean",
    "reliable_angle",
    "n_min_ideal",
    "min_feasible_hops",
    "latency_floor",
    "iteration_bound",
    "plan_hops",
    "min_sats_sufficient",
    "min_sats_grid",
    "min_sats_grid_minimum",
    "ideal_latency",
    # routing
    "RouteStatus",
    "Route",
    "arc_waypoints",
    "hop_repair",
    "route_equal_interval",
    "route_min_deflection",
    "route_max_stepsize",
    # efficiency
    "mean_hop_stretch",
    "mean_hop_span",
    "efficiency_contour",
    "efficiency_binomial",
    "measured_efficiency",
    # experiments
    "CellParams",
    "TrialRecord",
    "CellAggregate",
    "Table1Result",
    "SweepSpec",
    "SweepRecord",
    "run_trials",
    "run_cell",
    "make_endpoints",
    "strategy_router",
    "run_table1",
    "table1_rows",
    "sweep",
    "write_records_csv",
    "write_records_json",
    "write_table1_csv",
    "write_table1_json",
]
