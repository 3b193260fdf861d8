"""Command-line front end: analysis, single routes, summary table, sweeps.

Exit codes form a stable scripting contract:

* 0 — success
* 1 — usage or configuration error
* 2 — planning failed (no hop count satisfies the interruption budget)
* 3 — routing failed (no admissible relay continuation was found)
* 4 — internal error (an invariant that should be unreachable was violated)

Angles are radians (the literal ``pi`` and forms like ``pi/2`` or
``0.5pi`` are accepted), distances km, latencies ms. All randomness flows
from ``--seed``.

Each setting comes from its flag, else from the JSON object of
``--config FILE``, else from the command's default (``-``: not read;
``unset``: no default). A preset gives ``n_sat`` and ``altitude_km``.
Every value in the file is checked, read or not:

| Key           | Flag         | Kind  | `analyze` | `route` | `table1` | `sweep` |
| ------------- | ------------ | ----- | --------- | ------- | -------- | ------- |
| `preset`      | `--preset`   | str   | unset     | unset   | -        | unset   |
| `n_sat`       | `--n-sat`    | int   | unset     | unset   | -        | unset   |
| `altitude_km` | `--altitude` | float | unset     | unset   | -        | unset   |
| `distance_km` | `--distance` | float | -         | -       | -        | unset   |
| `d_max_km`    | `--d-max`    | float | 3000      | 3000    | -        | 3000    |
| `epsilon`     | `--epsilon`  | float | 0.01      | 0.01    | -        | 0.01    |
| `trials`      | `--trials`   | int   | -         | -       | 10000    | 1000    |
| `seed`        | `--seed`     | int   | -         | 0       | 0        | 0       |

``analyze`` and ``route`` describe one experimental cell
(:class:`~leoroute.experiments.CellParams`), and ``route`` builds its route
through the Monte Carlo harness's own trial cell
(:func:`~leoroute.experiments.trial_cell`), band first
(:meth:`~leoroute.experiments.TrialCell.route_rows`): through the
satellites near the endpoints' great circle, and through the whole shell
only when that route is not certified. ``--seed`` draws the shell of
``sample_bpp``, but builds only its band's satellites
(:func:`~leoroute.constellation.sample_bpp_band`), and builds the whole
shell only for that second route. ``route --constellation FILE``
routes over the satellites of the file and takes the satellite count, the
shell altitude and the body radius from it. The router reads the body
radius, like the endpoints, from the shell it routes through, so the
file's body sets both the hop plan and each hop's line-of-sight limit.

Arguments are parsed by the standard library's :mod:`argparse`. A flag is
spelled out in full (``--pre`` is no ``--preset``), the word after a flag
is its value whatever it starts with (``--from -inf``), ``--flag=value``
is ``--flag value``, and a repeated flag takes its last value. A parse
error is a usage error: argparse's message on stderr and exit code 1.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .analysis import (
    contact_mean,
    ideal_latency,
    iteration_bound,
    min_sats_grid_minimum,
    n_min_ideal,
    plan_hops,
)
from .constellation import (
    PRESET_PARAMS,
    Constellation,
    load_constellation,
    sample_bpp,
    sample_bpp_band,
)
from .errors import DegenerateArcError, InternalConsistencyError, InvalidInputError
from .experiments import (
    SCHEMA_VERSION,
    STRATEGIES,
    STRATEGY,
    CellParams,
    SweepSpec,
    make_endpoints,
    reference_latency_ms,
    run_table1,
    sweep as run_sweep,
    table1_rows,
    trial_cell,
    write_records_csv,
    write_records_json,
    write_table1_csv,
    write_table1_json,
)
from .geometry import R_EARTH_KM
from .routing import arc_waypoints

# Unused here; benchmarks/tracing.py wraps these bindings by name.
from .routing import (  # noqa: F401
    route_equal_interval,
    route_max_stepsize,
    route_min_deflection,
)

_ANGLE_PATTERN = re.compile(
    r"(?:(\d+(?:\.\d*)?|\.\d+)\s*\*?\s*)?pi(?:\s*/\s*(\d+(?:\.\d*)?|\.\d+))?"
)


def parse_angle(text: str) -> float:
    """Parse an angle in radians, allowing ``pi`` literals.

    Accepts plain floats plus forms like ``pi``, ``2pi``, ``pi/3``,
    ``0.5*pi``, ``2pi/3``.
    """
    s = str(text).strip().lower()
    try:
        return float(s)
    except ValueError:
        pass
    m = _ANGLE_PATTERN.fullmatch(s)
    if m is None:
        raise InvalidInputError(f"cannot parse angle {text!r}")
    numerator = float(m.group(1)) if m.group(1) else 1.0
    denominator = float(m.group(2)) if m.group(2) else 1.0
    if denominator == 0.0:
        raise InvalidInputError(f"cannot parse angle {text!r}: division by zero")
    return numerator * math.pi / denominator


def _load_config_file(path: Optional[str]) -> dict:
    if path is None:
        return {}
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise InvalidInputError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise InvalidInputError(f"config file {path} must hold a JSON object")
    return data


_SHELL = ("analyze", "route", "sweep")
_SEEDED = ("route", "table1", "sweep")

#: Every setting a command takes from a flag or from ``--config``, by config
#: key: its flag, kind, help and, for each command that reads it, default.
#: A flag beats the config file, which beats the command's default.
_SETTINGS = {
    "preset": ("--preset", str, "Named constellation shell", dict.fromkeys(_SHELL)),
    "n_sat": ("--n-sat", int, "Satellite count", dict.fromkeys(_SHELL)),
    "altitude_km": ("--altitude", float, "Shell altitude in km", dict.fromkeys(_SHELL)),
    "distance_km": ("--distance", float, "Fixed endpoint distance in km", {"sweep": None}),
    "d_max_km": ("--d-max", float, "Max hop chord in km", dict.fromkeys(_SHELL, 3000.0)),
    "epsilon": ("--epsilon", float, "Interruption budget in (0, 1)", dict.fromkeys(_SHELL, 0.01)),
    "trials": ("--trials", int, "Trials per cell", {"table1": 10_000, "sweep": 1000}),
    "seed": ("--seed", int, "Seed of the sampled shells", dict.fromkeys(_SEEDED, 0)),
}


def _settings(args: argparse.Namespace) -> dict:
    """The settings ``args.command`` reads, by config key: each flag, else
    its value in the ``--config`` file, else the command's default. A
    preset stands in for ``n_sat`` and ``altitude_km``, and does not appear
    itself.

    Every config-file value is checked, read or not: one that does not
    convert exactly to its kind is a configuration error, and null counts
    as absent. A bool is no number, and an int setting takes only
    integral values.
    """
    config = _load_config_file(args.config_path)
    settings = {}
    for key, (_, kind, _, defaults) in _SETTINGS.items():
        value = config.get(key)
        if value is not None:
            try:
                converted = kind(value)
            except (TypeError, ValueError, OverflowError):
                converted = None
            if (
                converted is None
                or (kind is not str and isinstance(value, bool))
                or (kind is int and isinstance(value, float) and converted != value)
            ):
                raise InvalidInputError(
                    f"config value {key}={value!r} is not a valid {kind.__name__}"
                )
            value = converted
        if args.command in defaults:
            flag = getattr(args, key)
            if flag is not None:
                value = flag
            settings[key] = defaults[args.command] if value is None else value
    preset = settings.pop("preset", None)
    if preset is not None:
        if settings["n_sat"] is not None or settings["altitude_km"] is not None:
            raise InvalidInputError(
                "give either --preset or --n-sat/--altitude, not both"
            )
        if preset not in PRESET_PARAMS:
            raise InvalidInputError(
                f"unknown preset {preset!r}; choose from {sorted(PRESET_PARAMS)}"
            )
        settings["altitude_km"], settings["n_sat"] = PRESET_PARAMS[preset]
    return settings


def _cell(
    settings: dict, dome_angle: str, shell: Optional[Constellation] = None
) -> CellParams:
    """The cell ``settings`` describe at the given dome angle.

    With ``shell`` (a constellation file), the satellite count, altitude
    and body radius are the file's.
    """
    n_sat, altitude, r_earth = settings["n_sat"], settings["altitude_km"], R_EARTH_KM
    if shell is not None:
        n_sat, altitude, r_earth = shell.n_sat, shell.altitude, shell.r_earth
    elif n_sat is None or altitude is None:
        raise InvalidInputError(
            "constellation unspecified: give --preset or both --n-sat and --altitude"
        )
    arc = parse_angle(dome_angle)
    if not 0.0 < arc <= math.pi:
        raise InvalidInputError(f"dome angle must be in (0, pi], got {arc}")
    return CellParams(
        n_sat=int(n_sat),
        altitude_km=float(altitude),
        arc_angle=arc,
        d_max_km=settings["d_max_km"],
        epsilon=settings["epsilon"],
        r_earth_km=r_earth,
    )


_SWEEP_VARS = {"distance": "distance_km", "altitude": "altitude_km", "n-sat": "n_sat"}

_DOME_ANGLE = {
    "default": "pi",
    "help": "Endpoint separation in radians, pi literals allowed (default pi).",
}
_THREADS = {
    "type": int,
    "default": 1,
    "help": "Worker processes, at most one per CPU (default 1).",
}
_FORMAT = {
    "dest": "fmt",
    "choices": ("csv", "json", "both"),
    "default": "both",
    "help": "Files to write (default both).",
}

#: The options of each command besides ``--config`` and its settings, by
#: flag: the keywords that add the option to the command's parser.
_OPTIONS = {
    "analyze": {"--dome-angle": _DOME_ANGLE},
    "route": {
        "--dome-angle": _DOME_ANGLE,
        "--strategy": {
            "choices": STRATEGIES,
            "default": "equal-interval",
            "help": "Routing strategy (default equal-interval).",
        },
        "--constellation": {
            "dest": "constellation_path",
            "metavar": "FILE",
            "help": "Load satellites from a JSON file instead of sampling; its "
            "size, altitude and body radius replace the shell flags.",
        },
        "--out": {
            "metavar": "FILE",
            "help": "Write the route JSON here instead of stdout.",
        },
    },
    "table1": {
        "--threads": _THREADS,
        "--out": {"default": "table1", "help": "Output base path (default table1)."},
        "--format": _FORMAT,
    },
    "sweep": {
        "--var": {
            "choices": sorted(_SWEEP_VARS),
            "required": True,
            "help": "Quantity to sweep.",
        },
        "--from": {
            "dest": "start", "type": float, "required": True,
            "help": "First swept value.",
        },
        "--to": {
            "dest": "stop", "type": float, "required": True,
            "help": "Last swept value (inclusive).",
        },
        "--step": {
            "type": float, "required": True, "help": "Increment between values.",
        },
        "--threads": _THREADS,
        "--strategies": {
            "default": ",".join(STRATEGIES),
            "help": "Comma-separated strategy subset, non-empty and without "
            "repeats (default all four).",
        },
        "--out": {"default": "sweep", "help": "Output base path (default sweep)."},
        "--format": _FORMAT,
    },
}

#: Every flag that takes a value: all but ``--help`` and ``--version``.
_VALUE_FLAGS = frozenset(
    [
        "--config",
        *(flag for flag, *_ in _SETTINGS.values()),
        *(flag for options in _OPTIONS.values() for flag in options),
    ]
)


def analyze(args: argparse.Namespace) -> int:
    """Closed-form link analysis: hop plan, contact law, feasibility."""
    params = _cell(_settings(args), args.dome_angle)
    arc, theta_max = params.arc_angle, params.theta_max
    plan = plan_hops(arc, theta_max, params.n_sat, params.epsilon)
    mean = contact_mean(params.n_sat)
    bound = iteration_bound(params.epsilon, theta_max, params.n_sat)
    print(f"max_hop_angle_rad = {theta_max:.6f}")
    print(f"n_min_hops = {n_min_ideal(arc, theta_max)}")
    print(f"n_hat_hops = {plan.n_hat}")
    print(f"reliable_angle_rad = {plan.reliable_angle:.6f}")
    print(f"type1_interrupted = {'yes' if plan.type1_interrupted else 'no'}")
    print(f"iterations_used = {plan.iterations_used}")
    print(f"contact_mean_rad = {mean.quadrature:.6f}")
    print(
        f"min_sats_sufficient = {min_sats_grid_minimum(arc, theta_max, params.epsilon)}"
    )
    bound_text = f"{bound:.3f}" if bound < 1e6 else f"{bound:.6g}"
    print(f"iteration_bound = {bound_text}")
    return 2 if plan.type1_interrupted else 0


def route(args: argparse.Namespace) -> int:
    """Build one route between endpoints at the given separation."""
    settings = _settings(args)
    row = STRATEGY[args.strategy]
    shell = None
    if args.constellation_path is not None:
        shell = load_constellation(args.constellation_path)
    params = _cell(settings, args.dome_angle, shell)
    arc, theta_max, radius = params.arc_angle, params.theta_max, params.radius

    payload = {"schema_version": SCHEMA_VERSION, "strategy": row.name}
    exit_code = 0
    cell = None
    if row.router is None:
        # The waypoints resolve antipodal endpoints with the routing
        # convention, so the default half-circle separation works for
        # every strategy.
        n_hops = n_min_ideal(arc, theta_max)
        positions = arc_waypoints(*make_endpoints(radius, arc), n_hops)
        payload.update(
            {
                "relay_positions": [
                    {"theta_rad": p.theta, "phi_rad": p.phi} for p in positions
                ],
                "n_hops": n_hops,
                "latency_ms": ideal_latency(arc, n_hops, radius),
                "status": "ok",
            }
        )
    else:
        plan = plan_hops(arc, theta_max, params.n_sat, params.epsilon)
        if row.targets:
            payload.update(
                {
                    "n_hat": plan.n_hat,
                    "reliable_angle_rad": plan.reliable_angle,
                    "type1_interrupted": plan.type1_interrupted,
                }
            )
            if plan.type1_interrupted:
                exit_code = 2
        if row.targets and plan.immediate_type1:
            payload["status"] = "type2_interrupted"
            payload["hops"] = []
        else:
            cell = trial_cell(params, row.name, plan)
            n_sat, s = params.n_sat, cell.band_sine
            if shell is None:
                seed = settings["seed"]
                ids, rows = sample_bpp_band(n_sat, seed, s)
                draw = (n_sat, params.r_earth_km, params.altitude_km, seed)
                route_obj = cell.route_rows(
                    n_sat, ids, rows, lambda: sample_bpp(*draw).unit_vectors
                )
            else:
                units = shell.unit_vectors
                ids = np.flatnonzero(np.abs(units[:, 1]) <= s)
                route_obj = cell.route_rows(n_sat, ids, units[ids], lambda: units)
            payload.update(
                {
                    "hops": list(route_obj.hops),
                    "hop_distances_km": list(route_obj.hop_distances),
                    "latency_ms": (
                        None if route_obj.interrupted else route_obj.latency
                    ),
                    "status": route_obj.status.value,
                    "direct_hop": route_obj.direct_hop,
                }
            )
            if route_obj.interrupted and exit_code == 0:
                exit_code = 3
        payload["ideal_latency_ms"] = ideal_latency(
            arc, n_min_ideal(arc, theta_max), radius
        )
        payload["latency_floor_ms"] = (
            reference_latency_ms(params) if cell is None else cell.reference_ms
        )

    text = json.dumps(payload, indent=2)
    if args.out is not None:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)
    return exit_code


def _write_pair(fmt: str, out_base: str, write_csv, write_json) -> list[str]:
    paths = []
    for ext, write in (("csv", write_csv), ("json", write_json)):
        if fmt in (ext, "both"):
            paths.append(f"{out_base}.{ext}")
            write(paths[-1])
    return paths


def table1(args: argparse.Namespace) -> int:
    """Monte Carlo summary table over the three preset constellations."""
    settings = _settings(args)
    result = run_table1(
        trials=settings["trials"], base_seed=settings["seed"], threads=args.threads
    )
    paths = _write_pair(
        args.fmt,
        args.out,
        lambda p: write_table1_csv(result, p),
        lambda p: write_table1_json(result, p),
    )
    header = ["metric"] + [col.preset for col in result.columns]
    widths = [max(len(header[i]), 22) for i in range(len(header))]
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    for row in table1_rows(result):
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    for path in paths:
        print(f"wrote {path}")
    return 0


def sweep(args: argparse.Namespace) -> int:
    """Sweep one parameter and record per-strategy aggregates."""
    var, start, stop, step = args.var, args.start, args.stop, args.step
    variable = _SWEEP_VARS[var]
    if not all(map(math.isfinite, (start, stop, step))):
        raise InvalidInputError("--from, --to and --step must be finite")
    if step <= 0 or stop < start:
        raise InvalidInputError("need step > 0 and --to >= --from")
    count = int(math.floor((stop - start) / step + 1e-9)) + 1
    values = tuple(start + i * step for i in range(count))
    if getattr(args, variable) is not None:
        raise InvalidInputError(f"cannot fix the swept variable {var!r}")
    # The swept values replace any value a preset or config file gives.
    fixed = _settings(args)
    trials, seed = fixed.pop("trials"), fixed.pop("seed")

    chosen = tuple(s.strip() for s in args.strategies.split(",") if s.strip())
    spec = SweepSpec(
        variable=variable,
        values=values,
        fixed=fixed,
        trials=trials,
        base_seed=seed,
    )
    records = run_sweep(spec, strategies=chosen, threads=args.threads)
    paths = _write_pair(
        args.fmt,
        args.out,
        lambda p: write_records_csv(records, p),
        lambda p: write_records_json(records, p),
    )
    print(
        f"swept {variable} over {len(values)} values x {len(chosen)} strategies "
        f"({trials} trials each)"
    )
    for path in paths:
        print(f"wrote {path}")
    return 0


def _parser() -> argparse.ArgumentParser:
    """The ``leoroute`` parser: a subparser for each command, with
    ``--config``, the flag of each setting the command reads and its
    options. No parser takes ``-h`` or abbreviated flags."""
    plain = {"add_help": False, "allow_abbrev": False}
    help_text = "Show this message and exit."
    # The raw formatter prints the version line as it is, however narrow
    # the terminal.
    root = argparse.ArgumentParser(
        prog="leoroute",
        description="Minimum-latency multi-hop routing between satellites on a sphere.",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        **plain,
    )
    root.add_argument("--help", action="help", help=help_text)
    root.add_argument(
        "--version",
        action="version",
        version=f"leoroute {__version__} (output schema v{SCHEMA_VERSION})",
        help="Print version and output schema version.",
    )
    commands = root.add_subparsers(dest="command", metavar="COMMAND", required=True)
    for run in (analyze, route, table1, sweep):
        name = run.__name__
        command = commands.add_parser(
            name, help=run.__doc__, description=run.__doc__, **plain
        )
        command.set_defaults(run=run)
        command.add_argument("--help", action="help", help=help_text)
        command.add_argument(
            "--config", dest="config_path", metavar="FILE",
            help="JSON file with defaults; flags override it.",
        )
        for key, (flag, kind, text, defaults) in _SETTINGS.items():
            if name in defaults:
                default = defaults[name]
                note = "." if default is None else f" (default {default:g})."
                choices = sorted(PRESET_PARAMS) if key == "preset" else None
                command.add_argument(
                    flag, dest=key, type=kind, choices=choices, help=text + note
                )
        for flag, keywords in _OPTIONS[name].items():
            command.add_argument(flag, **keywords)
    return root


_PARSER = _parser()


def _joined(argv: Sequence[str]) -> list[str]:
    """``argv`` with each flag that takes a value joined to the word after
    it (``--from -inf`` becomes ``--from=-inf``), so that word is the value
    whatever it starts with; argparse alone would read ``-inf`` as an
    unknown flag. Words after ``--`` are left as they are."""
    words, i = list(argv), 0
    while i < len(words) - 1 and words[i] != "--":
        if words[i] in _VALUE_FLAGS:
            words[i : i + 2] = [f"{words[i]}={words[i + 1]}"]
        i += 1
    return words


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run the CLI, mapping failures onto the documented exit codes.

    A command returns its own exit code. argparse ends ``--help`` and
    ``--version`` with ``SystemExit(0)`` and a parse error, after its
    message on stderr, with ``SystemExit(2)``, which exits 1 here.
    """
    try:
        args = _PARSER.parse_args(_joined(sys.argv[1:] if argv is None else argv))
        return args.run(args)
    except SystemExit as exc:
        return 1 if exc.code else 0
    except (InvalidInputError, DegenerateArcError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InternalConsistencyError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4


def entrypoint() -> None:
    """Console-script entry point."""
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entrypoint()
