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

``analyze`` and ``route`` describe one experimental cell
(:class:`~leoroute.experiments.CellParams`), and ``route`` builds its route
through the Monte Carlo harness's own trial cell
(:func:`~leoroute.experiments.trial_cell`) over a shell drawn by
``sample_bpp``, band first as a trial is routed
(:meth:`~leoroute.experiments.TrialCell.route_rows`): through the
satellites near the endpoints' great circle, and through the whole shell
only when that route is not certified. ``route --constellation FILE``
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


def _merge(flag_value, config: dict, key: str, default, kind: type):
    """Flag beats config file beats hard default.

    A config-file value is converted with ``kind``; one that does not
    convert is a configuration error, and null counts as absent.
    """
    if flag_value is not None:
        return flag_value
    value = config.get(key)
    if value is None:
        return default
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidInputError(
            f"config value {key}={value!r} is not a valid {kind.__name__}"
        ) from exc


def _resolve_shell(
    preset: Optional[str],
    n_sat: Optional[int],
    altitude: Optional[float],
    config: dict,
) -> tuple[Optional[int], Optional[float]]:
    """Satellite count and altitude from a preset or from explicit values.

    Either may be None when neither flags, config file nor preset give it.
    """
    preset = _merge(preset, config, "preset", None, str)
    n_sat = _merge(n_sat, config, "n_sat", None, int)
    altitude = _merge(altitude, config, "altitude_km", None, float)
    explicit = n_sat is not None or altitude is not None
    if preset is not None and explicit:
        raise InvalidInputError("give either --preset or --n-sat/--altitude, not both")
    if preset is not None:
        if preset not in PRESET_PARAMS:
            raise InvalidInputError(
                f"unknown preset {preset!r}; choose from {sorted(PRESET_PARAMS)}"
            )
        altitude, n_sat = PRESET_PARAMS[preset]
    return n_sat, altitude


def _resolve_cell(
    preset: Optional[str],
    n_sat: Optional[int],
    altitude: Optional[float],
    d_max: Optional[float],
    epsilon: Optional[float],
    config: dict,
    dome_angle: str,
    shell: Optional[Constellation] = None,
) -> CellParams:
    """The cell a command's flags and config file describe.

    With ``shell`` (a constellation file), the satellite count, altitude
    and body radius are the file's.
    """
    n_sat, altitude = _resolve_shell(preset, n_sat, altitude, config)
    r_earth = R_EARTH_KM
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
        d_max_km=_merge(d_max, config, "d_max_km", 3000.0, float),
        epsilon=_merge(epsilon, config, "epsilon", 0.01, float),
        r_earth_km=r_earth,
    )


# Options that several commands share.
_config_option = click.option(
    "--config",
    "config_path",
    type=click.Path(),
    default=None,
    help="JSON file with defaults; flags override it.",
)
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


def _constellation_options(f):
    f = click.option(
        "--preset",
        type=click.Choice(sorted(PRESET_PARAMS)),
        default=None,
        help="Named constellation shell.",
    )(f)
    f = click.option("--n-sat", type=int, default=None, help="Satellite count.")(f)
    f = click.option(
        "--altitude", type=float, default=None, help="Shell altitude in km."
    )(f)
    f = click.option(
        "--d-max", type=float, default=None, help="Max hop chord in km (default 3000)."
    )(f)
    f = click.option(
        "--epsilon",
        type=float,
        default=None,
        help="Interruption budget in (0, 1) (default 0.01).",
    )(f)
    return _config_option(f)


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
@_constellation_options
@_dome_angle_option
def analyze(preset, n_sat, altitude, d_max, epsilon, config_path, dome_angle) -> None:
    """Closed-form link analysis: hop plan, contact law, feasibility."""
    params = _resolve_cell(
        preset, n_sat, altitude, d_max, epsilon, _load_config_file(config_path),
        dome_angle,
    )
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
@_constellation_options
@_dome_angle_option
@click.option(
    "--strategy",
    type=click.Choice(list(STRATEGIES)),
    default="equal-interval",
    show_default=True,
)
@click.option("--seed", type=int, default=None, help="Constellation seed (default 0).")
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
def route(
    preset,
    n_sat,
    altitude,
    d_max,
    epsilon,
    config_path,
    dome_angle,
    strategy,
    seed,
    constellation_path,
    out,
) -> None:
    """Build one route between endpoints at the given separation."""
    config = _load_config_file(config_path)
    shell = None
    if constellation_path is not None:
        shell = load_constellation(constellation_path)
    params = _resolve_cell(
        preset, n_sat, altitude, d_max, epsilon, config, dome_angle, shell
    )
    arc, theta_max, radius = params.arc_angle, params.theta_max, params.radius

    payload = {"schema_version": SCHEMA_VERSION, "strategy": strategy}
    exit_code = 0
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
            if shell is None:
                seed = _merge(seed, config, "seed", 0, int)
                shell = sample_bpp(
                    params.n_sat, params.r_earth_km, params.altitude_km, seed
                )
            cell = trial_cell(params, strategy, plan)
            route_obj = cell.route_rows(shell.unit_vectors)
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
        payload["latency_floor_ms"] = reference_latency_ms(params)

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
@click.option("--trials", type=int, default=None, help="Trials per cell (default 10000).")
@click.option("--seed", type=int, default=None, help="Base seed (default 0).")
@click.option("--threads", type=int, default=1, show_default=True, help="Worker processes, at most one per CPU.")
@click.option("--out", default="table1", show_default=True, help="Output base path.")
@_format_option
@_config_option
def table1(trials, seed, threads, out, fmt, config_path) -> None:
    """Monte Carlo summary table over the three preset constellations."""
    config = _load_config_file(config_path)
    trials = _merge(trials, config, "trials", 10_000, int)
    seed = _merge(seed, config, "seed", 0, int)
    if trials < 1:
        raise InvalidInputError("trials must be >= 1")
    result = run_table1(trials=trials, base_seed=seed, threads=threads)
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
@_constellation_options
@click.option("--distance", type=float, default=None, help="Fixed endpoint distance in km.")
@click.option("--trials", type=int, default=None, help="Trials per cell (default 1000).")
@click.option("--seed", type=int, default=None, help="Base seed (default 0).")
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
    var,
    start,
    stop,
    step,
    preset,
    n_sat,
    altitude,
    distance,
    d_max,
    epsilon,
    trials,
    seed,
    threads,
    strategies,
    out,
    fmt,
    config_path,
) -> None:
    """Sweep one parameter and record per-strategy aggregates."""
    config = _load_config_file(config_path)
    variable = _SWEEP_VARS[var]
    if step <= 0 or stop < start:
        raise InvalidInputError("need step > 0 and --to >= --from")
    count = int(math.floor((stop - start) / step + 1e-9)) + 1
    values = tuple(start + i * step for i in range(count))

    explicit = {"n_sat": n_sat, "altitude_km": altitude, "distance_km": distance}
    if explicit.get(variable) is not None:
        raise InvalidInputError(f"cannot fix the swept variable {var!r}")
    n_sat, altitude = _resolve_shell(preset, n_sat, altitude, config)

    fixed = {
        "n_sat": n_sat,
        "altitude_km": altitude,
        "distance_km": _merge(distance, config, "distance_km", None, float),
        "d_max_km": _merge(d_max, config, "d_max_km", 3000.0, float),
        "epsilon": _merge(epsilon, config, "epsilon", 0.01, float),
    }
    # A preset- or config-supplied value for the swept slot is just a default;
    # drop it rather than reject it.
    fixed.pop(variable, None)
    missing = [k for k, v in fixed.items() if v is None]
    if missing:
        raise InvalidInputError(f"missing fixed parameters: {missing}")
    trials = _merge(trials, config, "trials", 1000, int)
    seed = _merge(seed, config, "seed", 0, int)

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
