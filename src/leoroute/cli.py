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
(:func:`~leoroute.experiments.trial_cell`), band first as a trial is
routed (:meth:`~leoroute.experiments.TrialCell.route_rows`): through the
satellites near the endpoints' great circle, and through the whole shell
only when that route is not certified. ``--seed`` draws the shell of
``sample_bpp``, but builds only its band's satellites
(:func:`~leoroute.constellation.sample_bpp_band`), and builds the whole
shell only for that second route. ``route --constellation FILE``
routes over the satellites of the file and takes the satellite count, the
shell altitude and the body radius from it. The router reads the body
radius, like the endpoints, from the shell it routes through, so the
file's body sets both the hop plan and each hop's line-of-sight limit.
"""

from __future__ import annotations

import json
import math
import re
import sys
from pathlib import Path
from typing import Optional, Sequence

import click
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


def _settings(command: str, config_path: Optional[str], **flags) -> dict:
    """The settings ``command`` reads, by config key: each flag, else its
    config-file value, else the command's default. A preset stands in for
    ``n_sat`` and ``altitude_km``, and does not appear itself.

    Every config-file value is checked, read or not: one that does not
    convert exactly to its kind is a configuration error, and null counts
    as absent. A bool is no number, and an int setting takes only
    integral values.
    """
    config = _load_config_file(config_path)
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
        if command in defaults:
            if flags.get(key) is not None:
                value = flags[key]
            settings[key] = defaults[command] if value is None else value
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


def _setting_options(command: str):
    """Add ``--config`` and the flag of each setting ``command`` reads."""

    def decorate(f):
        f = click.option(
            "--config", "config_path", type=click.Path(),
            help="JSON file with defaults; flags override it.",
        )(f)
        for key, (flag, kind, text, defaults) in reversed(_SETTINGS.items()):
            if command in defaults:
                default = defaults[command]
                if key == "preset":
                    kind = click.Choice(sorted(PRESET_PARAMS))
                note = "." if default is None else f" (default {default:g})."
                f = click.option(flag, key, type=kind, help=text + note)(f)
        return f

    return decorate


_dome_angle_option = click.option(
    "--dome-angle",
    default="pi",
    show_default=True,
    help="Endpoint separation in radians (pi literals allowed).",
)
_format_option = click.option(
    "--format",
    "fmt",
    type=click.Choice(["csv", "json", "both"]),
    default="both",
    show_default=True,
)


def _print_version(ctx: click.Context, _param, value: bool) -> None:
    if not value or ctx.resilient_parsing:
        return
    click.echo(f"leoroute {__version__} (output schema v{SCHEMA_VERSION})")
    ctx.exit(0)


@click.group()
@click.option(
    "--version",
    is_flag=True,
    expose_value=False,
    is_eager=True,
    callback=_print_version,
    help="Print version and output schema version.",
)
def cli() -> None:
    """Minimum-latency multi-hop routing between satellites on a sphere."""


@cli.command()
@_setting_options("analyze")
@_dome_angle_option
def analyze(config_path, dome_angle, **flags) -> None:
    """Closed-form link analysis: hop plan, contact law, feasibility."""
    params = _cell(_settings("analyze", config_path, **flags), dome_angle)
    arc, theta_max = params.arc_angle, params.theta_max
    plan = plan_hops(arc, theta_max, params.n_sat, params.epsilon)
    mean = contact_mean(params.n_sat)
    bound = iteration_bound(params.epsilon, theta_max, params.n_sat)
    click.echo(f"max_hop_angle_rad = {theta_max:.6f}")
    click.echo(f"n_min_hops = {n_min_ideal(arc, theta_max)}")
    click.echo(f"n_hat_hops = {plan.n_hat}")
    click.echo(f"reliable_angle_rad = {plan.reliable_angle:.6f}")
    click.echo(f"type1_interrupted = {'yes' if plan.type1_interrupted else 'no'}")
    click.echo(f"iterations_used = {plan.iterations_used}")
    click.echo(f"contact_mean_rad = {mean.quadrature:.6f}")
    click.echo(
        f"min_sats_sufficient = {min_sats_grid_minimum(arc, theta_max, params.epsilon)}"
    )
    bound_text = f"{bound:.3f}" if bound < 1e6 else f"{bound:.6g}"
    click.echo(f"iteration_bound = {bound_text}")
    if plan.type1_interrupted:
        raise click.exceptions.Exit(2)


@cli.command()
@_setting_options("route")
@_dome_angle_option
@click.option(
    "--strategy",
    type=click.Choice(list(STRATEGIES)),
    default="equal-interval",
    show_default=True,
)
@click.option(
    "--constellation",
    "constellation_path",
    type=click.Path(),
    default=None,
    help="Load satellites from a JSON file instead of sampling; its size, "
    "altitude and body radius replace the shell flags.",
)
@click.option(
    "--out",
    type=click.Path(),
    default=None,
    help="Write the route JSON here instead of stdout.",
)
def route(config_path, dome_angle, strategy, constellation_path, out, **flags) -> None:
    """Build one route between endpoints at the given separation."""
    settings = _settings("route", config_path, **flags)
    shell = None
    if constellation_path is not None:
        shell = load_constellation(constellation_path)
    params = _cell(settings, dome_angle, shell)
    arc, theta_max, radius = params.arc_angle, params.theta_max, params.radius

    payload = {"schema_version": SCHEMA_VERSION, "strategy": strategy}
    exit_code = 0
    cell = None
    if strategy == "ideal":
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
        if strategy == "equal-interval":
            payload.update(
                {
                    "n_hat": plan.n_hat,
                    "reliable_angle_rad": plan.reliable_angle,
                    "type1_interrupted": plan.type1_interrupted,
                }
            )
            if plan.type1_interrupted:
                exit_code = 2
        if strategy == "equal-interval" and plan.immediate_type1:
            payload["status"] = "type2_interrupted"
            payload["hops"] = []
        else:
            cell = trial_cell(params, strategy, plan)
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
    if out is not None:
        Path(out).write_text(text + "\n")
    else:
        click.echo(text)
    if exit_code:
        raise click.exceptions.Exit(exit_code)


def _write_pair(fmt: str, out_base: str, write_csv, write_json) -> list[str]:
    paths = []
    for ext, write in (("csv", write_csv), ("json", write_json)):
        if fmt in (ext, "both"):
            paths.append(f"{out_base}.{ext}")
            write(paths[-1])
    return paths


@cli.command()
@_setting_options("table1")
@click.option("--threads", type=int, default=1, show_default=True, help="Worker processes, at most one per CPU.")
@click.option("--out", default="table1", show_default=True, help="Output base path.")
@_format_option
def table1(threads, out, fmt, config_path, **flags) -> None:
    """Monte Carlo summary table over the three preset constellations."""
    settings = _settings("table1", config_path, **flags)
    result = run_table1(
        trials=settings["trials"], base_seed=settings["seed"], threads=threads
    )
    paths = _write_pair(
        fmt,
        out,
        lambda p: write_table1_csv(result, p),
        lambda p: write_table1_json(result, p),
    )
    header = ["metric"] + [col.preset for col in result.columns]
    widths = [max(len(header[i]), 22) for i in range(len(header))]
    click.echo("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    for row in table1_rows(result):
        click.echo("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    for path in paths:
        click.echo(f"wrote {path}")


_SWEEP_VARS = {"distance": "distance_km", "altitude": "altitude_km", "n-sat": "n_sat"}


@cli.command(name="sweep")
@click.option(
    "--var",
    type=click.Choice(sorted(_SWEEP_VARS)),
    required=True,
    help="Quantity to sweep.",
)
@click.option("--from", "start", type=float, required=True, help="First swept value.")
@click.option("--to", "stop", type=float, required=True, help="Last swept value (inclusive).")
@click.option("--step", type=float, required=True, help="Increment between values.")
@_setting_options("sweep")
@click.option("--threads", type=int, default=1, show_default=True, help="Worker processes, at most one per CPU.")
@click.option(
    "--strategies",
    default=",".join(STRATEGIES),
    show_default=True,
    help="Comma-separated strategy subset, non-empty and without repeats.",
)
@click.option("--out", default="sweep", show_default=True, help="Output base path.")
@_format_option
def sweep_cmd(
    var, start, stop, step, threads, strategies, out, fmt, config_path, **flags
) -> None:
    """Sweep one parameter and record per-strategy aggregates."""
    variable = _SWEEP_VARS[var]
    if not all(map(math.isfinite, (start, stop, step))):
        raise InvalidInputError("--from, --to and --step must be finite")
    if step <= 0 or stop < start:
        raise InvalidInputError("need step > 0 and --to >= --from")
    count = int(math.floor((stop - start) / step + 1e-9)) + 1
    values = tuple(start + i * step for i in range(count))
    if flags[variable] is not None:
        raise InvalidInputError(f"cannot fix the swept variable {var!r}")
    # The swept values replace any value a preset or config file gives.
    fixed = _settings("sweep", config_path, **flags)
    trials, seed = fixed.pop("trials"), fixed.pop("seed")

    chosen = tuple(s.strip() for s in strategies.split(",") if s.strip())
    spec = SweepSpec(
        variable=variable,
        values=values,
        fixed=fixed,
        trials=trials,
        base_seed=seed,
    )
    records = run_sweep(spec, strategies=chosen, threads=threads)
    paths = _write_pair(
        fmt,
        out,
        lambda p: write_records_csv(records, p),
        lambda p: write_records_json(records, p),
    )
    click.echo(
        f"swept {variable} over {len(values)} values x {len(chosen)} strategies "
        f"({trials} trials each)"
    )
    for path in paths:
        click.echo(f"wrote {path}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run the CLI, mapping failures onto the documented exit codes.

    In non-standalone mode click swallows ``Exit`` and hands back its code as
    the return value, so deliberate exits (type-I -> 2, type-II -> 3) arrive
    here as integers rather than exceptions.
    """
    try:
        result = cli.main(args=argv, standalone_mode=False)
    except click.exceptions.Exit as exc:
        return exc.exit_code
    except click.ClickException as exc:
        exc.show()
        return 1
    except (InvalidInputError, DegenerateArcError, OSError) as exc:
        click.echo(f"error: {exc}", err=True)
        return 1
    except InternalConsistencyError as exc:
        click.echo(f"internal error: {exc}", err=True)
        return 4
    return result if isinstance(result, int) else 0


def entrypoint() -> None:
    """Console-script entry point."""
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entrypoint()
