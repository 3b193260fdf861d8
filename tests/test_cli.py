"""Tests for the command-line front end: parsing, output, exit codes."""

import csv
import json
import math
from pathlib import Path

import numpy as np
import pytest

from leoroute.analysis import max_hop_angle, plan_hops
from leoroute.cli import main, parse_angle
from leoroute.constellation import load_constellation, sample_bpp, save_constellation
from leoroute.errors import InternalConsistencyError, InvalidInputError
from leoroute.experiments import CellParams, make_endpoints, reference_latency_ms
from leoroute.geometry import SpherePoint, dome_angle
from leoroute.routing import (
    route_equal_interval,
    route_max_stepsize,
    route_min_deflection,
)


def run_cli(capsys, *argv):
    """Invoke the CLI and return (exit_code, stdout, stderr)."""
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parsed_lines(stdout):
    """Turn ``key = value`` output lines into a dict."""
    result = {}
    for line in stdout.splitlines():
        if " = " in line:
            key, _, value = line.partition(" = ")
            result[key.strip()] = value.strip()
    return result


# ---------------------------------------------------------------------------
# Angle parsing
# ---------------------------------------------------------------------------


def test_parse_angle_accepts_pi_literals():
    assert parse_angle("pi") == pytest.approx(math.pi)
    assert parse_angle("pi/2") == pytest.approx(math.pi / 2)
    assert parse_angle("2pi/3") == pytest.approx(2 * math.pi / 3)
    assert parse_angle("0.5*pi") == pytest.approx(math.pi / 2)
    assert parse_angle("0.25 * pi") == pytest.approx(math.pi / 4)
    assert parse_angle("2pi") == pytest.approx(2 * math.pi)
    assert parse_angle("1.57") == 1.57
    assert parse_angle(" 3 ") == 3.0


def test_parse_angle_rejects_garbage():
    for bad in ("twopi", "pi/", "pi//2", "", "1..2", "pi*pi", "pi/0", "2pi/0.0"):
        with pytest.raises(InvalidInputError):
            parse_angle(bad)


# ---------------------------------------------------------------------------
# Version and usage errors
# ---------------------------------------------------------------------------


def test_version_flag(capsys):
    code, out, _ = run_cli(capsys, "--version")
    assert code == 0
    assert out.strip() == "leoroute 0.1.0 (output schema v1)"


def test_usage_errors_exit_one(capsys):
    # Unknown subcommand.
    code, _, err = run_cli(capsys, "frobnicate")
    assert code == 1
    # Unknown option.
    code, _, _ = run_cli(capsys, "analyze", "--bogus")
    assert code == 1
    # Preset and explicit shell at once.
    code, _, err = run_cli(
        capsys, "analyze", "--preset", "starlink", "--n-sat", "100"
    )
    assert code == 1
    assert "either --preset or --n-sat/--altitude" in err
    # No constellation at all.
    code, _, err = run_cli(capsys, "analyze")
    assert code == 1
    assert "constellation unspecified" in err
    # Nonsensical satellite count.
    code, _, _ = run_cli(capsys, "analyze", "--n-sat", "0", "--altitude", "550")
    assert code == 1
    # Negative seed: one error line, no traceback.
    code, _, err = run_cli(
        capsys, "route", "--preset", "oneweb", "--strategy", "min-deflection",
        "--seed", "-1",
    )
    assert (code, err) == (1, "error: seed must be >= 0, got -1\n")
    # Dome angle outside (0, pi].
    code, _, err = run_cli(
        capsys, "analyze", "--preset", "starlink", "--dome-angle", "2pi"
    )
    assert code == 1
    assert "dome angle" in err
    # A zero denominator: one error line, no traceback.
    code, _, err = run_cli(
        capsys, "analyze", "--preset", "kuiper", "--dome-angle", "pi/0"
    )
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


def test_analyze_dense_shell(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--preset", "starlink")
    assert code == 0
    values = parsed_lines(out)
    assert float(values["max_hop_angle_rad"]) == pytest.approx(0.436931, abs=1e-6)
    assert values["n_min_hops"] == "9"
    assert values["n_hat_hops"] == "10"
    assert float(values["reliable_angle_rad"]) == pytest.approx(0.0481, abs=2e-3)
    assert values["type1_interrupted"] == "no"
    assert values["iterations_used"] == "2"
    assert float(values["contact_mean_rad"]) == pytest.approx(0.016229, abs=5e-7)
    assert values["min_sats_sufficient"] == "1185"
    assert float(values["iteration_bound"]) > 0


def test_analyze_infeasible_plan_exits_two(capsys):
    code, out, _ = run_cli(
        capsys, "analyze", "--preset", "oneweb", "--epsilon", "0.01"
    )
    assert code == 2
    values = parsed_lines(out)
    assert values["type1_interrupted"] == "yes"
    assert values["n_hat_hops"] == "9"
    assert float(values["reliable_angle_rad"]) == pytest.approx(0.2044, abs=2e-3)


@pytest.mark.parametrize("preset, epsilon", [("oneweb", "1e-17")])
def test_analyze_tiny_epsilon_exits_two(capsys, preset, epsilon):
    # (1 - epsilon)^(1/h) rounds to 1; the sufficient size must stay finite,
    # and oneweb is type-I at its first hop count.
    code, out, err = run_cli(capsys, "analyze", "--preset", preset, "--epsilon", epsilon)
    assert (code, err) == (2, "")
    values = parsed_lines(out)
    assert len(values) == 9
    assert values["type1_interrupted"] == "yes"
    assert values["n_hat_hops"] == "9" and values["iterations_used"] == "1"
    assert int(values["min_sats_sufficient"]) > 0


def test_analyze_tiny_epsilon_keeps_the_reliable_angle(capsys):
    # (1 - epsilon)^(1/h) rounds to 1, but the per-hop miss must not round
    # to 0: the reliable angle stays small and the plan is not type-I.
    code, out, err = run_cli(
        capsys, "analyze", "--preset", "starlink", "--epsilon", "1e-16"
    )
    assert (code, err) == (0, "")
    values = parsed_lines(out)
    assert values["n_hat_hops"] == "16"
    assert values["type1_interrupted"] == "no"
    assert float(values["reliable_angle_rad"]) == pytest.approx(0.1152, abs=1e-4)


def test_analyze_single_satellite_short_arc(capsys):
    # With the chord cap lifted, two hops always suffice for a short arc.
    code, out, _ = run_cli(
        capsys,
        "analyze",
        "--n-sat",
        "1",
        "--altitude",
        "550",
        "--d-max",
        "99999",
        "--dome-angle",
        "0.001",
    )
    values = parsed_lines(out)
    assert values["n_min_hops"] == "2"
    # One satellite cannot support the plan: certain planning interruption.
    assert values["type1_interrupted"] == "yes"
    assert code == 2


def test_analyze_hop_range_must_be_a_positive_number(capsys):
    shell = ("analyze", "--n-sat", "800", "--altitude", "500")
    code, _, err = run_cli(capsys, *shell, "--d-max", "nan")
    assert code == 1
    assert "d_max" in err
    # An unbounded range leaves the hop horizon-limited.
    code, out, _ = run_cli(capsys, *shell, "--d-max", "inf")
    assert code == 0
    horizon = 2.0 * math.acos(6371.0 / 6871.0)
    assert float(parsed_lines(out)["max_hop_angle_rad"]) == pytest.approx(
        horizon, abs=1e-6
    )


def test_analyze_config_file_and_flag_precedence(capsys, tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"preset": "oneweb", "epsilon": 0.1}))
    code, out, _ = run_cli(capsys, "analyze", "--config", str(config))
    values = parsed_lines(out)
    assert code == 2  # 10% plan on this shell is still infeasible
    assert values["n_hat_hops"] == "69"
    assert float(values["reliable_angle_rad"]) == pytest.approx(0.1996, abs=2e-3)

    # A flag overrides the config value.
    code, out, _ = run_cli(
        capsys, "analyze", "--config", str(config), "--epsilon", "0.01"
    )
    values = parsed_lines(out)
    assert values["n_hat_hops"] == "9"

    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2, 3]")
    code, _, err = run_cli(capsys, "analyze", "--config", str(bad))
    assert code == 1
    assert "config file" in err


@pytest.mark.parametrize(
    "argv, config",
    [
        (
            ["route", "--strategy", "min-deflection"],
            {"preset": "oneweb", "seed": "abc"},
        ),
        (["analyze"], {"n_sat": "many", "altitude_km": 550}),
        (["analyze", "--preset", "starlink"], {"epsilon": [0.1]}),
        (["table1", "--trials", "2"], {"seed": "1.5"}),
        (
            ["sweep", "--var", "distance", "--from", "4000", "--to", "4000",
             "--step", "1"],
            {"n_sat": 800, "altitude_km": 500, "trials": "x"},
        ),
    ],
    ids=[
        "route-seed", "analyze-n_sat", "analyze-epsilon", "table1-seed", "sweep-trials"
    ],
)
def test_config_value_of_wrong_type_exits_one(capsys, tmp_path, argv, config):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    code, _, err = run_cli(capsys, *argv, "--config", str(path))
    assert code == 1
    assert err.startswith("error: config value ")
    assert len(err.splitlines()) == 1


def test_route_constellation_file_not_json_exits_one(capsys, tmp_path):
    path = tmp_path / "shell.json"
    path.write_text("not json")
    code, out, err = run_cli(capsys, "route", "--constellation", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error: malformed constellation file ")
    assert len(err.splitlines()) == 1


# ---------------------------------------------------------------------------
# route
# ---------------------------------------------------------------------------


def test_route_equal_interval_payload(capsys):
    code, out, _ = run_cli(
        capsys, "route", "--preset", "starlink", "--seed", "3", "--epsilon", "0.01"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["schema_version"] == 1
    assert payload["strategy"] == "equal-interval"
    assert payload["status"] == "ok"
    assert payload["n_hat"] == 10
    assert payload["type1_interrupted"] is False
    assert not payload["direct_hop"]
    hops = payload["hops"]
    assert len(payload["hop_distances_km"]) == len(hops) - 1
    assert hops[0] == 11927 and hops[-1] == 11928  # appended endpoint IDs
    # Latency lands between the provable floor and a 5% overhead above it.
    floor = payload["latency_floor_ms"]
    assert floor <= payload["latency_ms"] <= floor / 0.95
    assert payload["ideal_latency_ms"] >= floor


def test_route_ideal_relays_are_evenly_spaced(capsys):
    code, out, _ = run_cli(
        capsys, "route", "--preset", "starlink", "--strategy", "ideal"
    )
    assert code == 0
    payload = json.loads(out)
    positions = payload["relay_positions"]
    assert payload["n_hops"] == 9
    assert len(positions) == 10
    radius = 6371.0 + 550.0
    points = [
        SpherePoint(theta=p["theta_rad"], phi=p["phi_rad"], r=radius)
        for p in positions
    ]
    gaps = [dome_angle(a, b) for a, b in zip(points, points[1:])]
    for gap in gaps:
        assert gap == pytest.approx(math.pi / 9, abs=1e-9)
    assert payload["latency_ms"] == pytest.approx(72.1, abs=0.1)


@pytest.mark.parametrize(
    "strategy", ["equal-interval", "min-deflection", "max-stepsize"]
)
def test_route_tiny_dome_angles(capsys, strategy):
    """Endpoints 1e-8 rad apart are one direct hop; 1e-10 rad apart they
    coincide by the arc threshold of ``great_arc`` (1e-9 rad)."""
    code, out, _ = run_cli(
        capsys, "route", "--preset", "starlink", "--strategy", strategy,
        "--dome-angle", "1e-8",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "ok" and payload["direct_hop"]
    assert payload["hop_distances_km"] == [pytest.approx(6921.0e-8, rel=1e-6)]
    code, out, err = run_cli(
        capsys, "route", "--preset", "starlink", "--strategy", strategy,
        "--dome-angle", "1e-10",
    )
    assert (code, out) == (1, "")
    assert err == "error: src and dst are the same point\n"


def test_route_immediate_planning_failure_exits_two(capsys):
    code, out, _ = run_cli(
        capsys, "route", "--preset", "oneweb", "--epsilon", "0.01"
    )
    assert code == 2
    payload = json.loads(out)
    assert payload["status"] == "type2_interrupted"
    assert payload["hops"] == []
    assert payload["n_hat"] == 9
    assert payload["type1_interrupted"] is True


def test_internal_error_exits_four(capsys, monkeypatch):
    def broken_plan(*args, **kwargs):
        raise InternalConsistencyError("planned hop count went negative")

    monkeypatch.setattr("leoroute.cli.plan_hops", broken_plan)
    code, out, err = run_cli(
        capsys, "analyze", "--preset", "kuiper", "--epsilon", "0.01"
    )
    assert code == 4
    assert out == ""
    assert err == "internal error: planned hop count went negative\n"


def test_route_sparse_shell_exits_three(capsys):
    # 200 satellites cannot carry a pole-to-pole route inside the planned
    # belt: the walk stalls after one hop.
    code, out, _ = run_cli(
        capsys,
        "route",
        "--n-sat",
        "200",
        "--altitude",
        "550",
        "--seed",
        "0",
        "--epsilon",
        "0.5",
        "--strategy",
        "max-stepsize",
    )
    assert code == 3
    payload = json.loads(out)
    assert payload["status"] == "type2_interrupted"
    assert payload["latency_ms"] is None


@pytest.mark.parametrize("seed, arc", [(0, math.pi), (3, 10250.0 / 6871.0)])
@pytest.mark.parametrize("strategy", ["equal-interval", "min-deflection", "max-stepsize"])
def test_route_matches_library_router(capsys, strategy, seed, arc):
    """The CLI routes with the plan for the sampled shell's N satellites.

    At 10250 km that plan (n_hat 12) differs from the one for the N + 2
    satellites of the shell with its endpoints appended (n_hat 11).
    """
    code, out, _ = run_cli(
        capsys,
        "route",
        "--n-sat",
        "800",
        "--altitude",
        "500",
        "--epsilon",
        "0.1",
        "--seed",
        str(seed),
        "--dome-angle",
        repr(arc),
        "--strategy",
        strategy,
    )
    payload = json.loads(out)
    radius = 6371.0 + 500.0
    theta_max = max_hop_angle(radius, 6371.0, 3000.0)
    plan = plan_hops(arc, theta_max, 800, 0.1)
    src, dst = make_endpoints(radius, arc)
    shell = sample_bpp(800, 6371.0, 500.0, seed).with_extra_points([src, dst])
    router = {
        "equal-interval": route_equal_interval,
        "min-deflection": route_min_deflection,
        "max-stepsize": route_max_stepsize,
    }[strategy]
    route = router(shell, 3000.0, plan)
    assert payload["hops"] == list(route.hops)
    assert payload["hop_distances_km"] == list(route.hop_distances)
    assert payload["status"] == route.status.value
    assert payload.get("n_hat", plan.n_hat) == plan.n_hat
    assert code == (3 if route.interrupted else 0)


def test_route_out_file_and_constellation_file(capsys, tmp_path):
    out_path = tmp_path / "route.json"
    code, out, _ = run_cli(
        capsys,
        "route",
        "--n-sat",
        "2000",
        "--altitude",
        "550",
        "--seed",
        "4",
        "--epsilon",
        "0.1",
        "--dome-angle",
        "2.0",
        "--out",
        str(out_path),
    )
    assert code == 0
    assert out == ""  # payload went to the file, not stdout
    payload = json.loads(out_path.read_text())
    assert payload["status"] == "ok"

    # The same constellation loaded from a file gives the same route.
    sats = sample_bpp(2000, 6371.0, 550.0, 4)
    c_path = tmp_path / "shell.json"
    save_constellation(sats, c_path)
    code, out, _ = run_cli(
        capsys,
        "route",
        "--constellation",
        str(c_path),
        "--epsilon",
        "0.1",
        "--dome-angle",
        "2.0",
    )
    assert code == 0
    assert json.loads(out)["hops"] == payload["hops"]


@pytest.mark.parametrize("strategy", ["equal-interval", "min-deflection", "max-stepsize"])
def test_route_constellation_file_hops_index_the_file(capsys, tmp_path, strategy):
    """``route`` routes on the band around the arc first, but its hop IDs
    are the file's: each relay is a satellite of the file, and src and dst
    follow the file's last satellite."""
    path = tmp_path / "shell.json"
    save_constellation(sample_bpp(3000, 6371.0, 550.0, 2), path)
    code, out, _ = run_cli(
        capsys, "route", "--constellation", str(path), "--epsilon", "0.1",
        "--dome-angle", "2.5", "--strategy", strategy,
    )
    payload = json.loads(out)
    shell = load_constellation(path)
    src, dst = make_endpoints(shell.radius, 2.5)
    whole = shell.with_extra_points([src, dst])
    plan = plan_hops(2.5, max_hop_angle(shell.radius, 6371.0, 3000.0), 3000, 0.1)
    router = {
        "equal-interval": route_equal_interval,
        "min-deflection": route_min_deflection,
        "max-stepsize": route_max_stepsize,
    }[strategy]
    assert code == 0
    hops = payload["hops"]
    assert (hops[0], hops[-1]) == (3000, 3001)
    assert max(hops[1:-1]) < 3000
    assert hops == list(router(whole, 3000.0, plan).hops)
    steps = np.diff(whole.unit_vectors[hops], axis=0)
    chords = shell.radius * np.linalg.norm(steps, axis=1)
    assert payload["hop_distances_km"] == chords.tolist()


def test_route_constellation_file_uses_its_body_radius(capsys, tmp_path):
    """A file's r_earth sets the line-of-sight limit, not just the plan.

    On a 500 km shell around a 6000 km body, hops may reach the 3000 km
    d_max; a 6371 km body would block every chord beyond 2577 km.
    """
    path = tmp_path / "shell.json"
    save_constellation(sample_bpp(3000, 6000.0, 500.0, 0), path)
    code, out, _ = run_cli(
        capsys,
        "route",
        "--constellation",
        str(path),
        "--epsilon",
        "0.1",
        "--strategy",
        "max-stepsize",
    )
    payload = json.loads(out)
    shell = load_constellation(path)
    theta_max = max_hop_angle(6500.0, 6000.0, 3000.0)
    plan = plan_hops(math.pi, theta_max, 3000, 0.1)
    src, dst = make_endpoints(6500.0, math.pi)
    # The shell carries the 6000 km body to the router.
    route = route_max_stepsize(shell.with_extra_points([src, dst]), 3000.0, plan)
    assert code == 0
    assert payload["hops"] == list(route.hops)
    assert max(payload["hop_distances_km"]) > 2577.0


# ---------------------------------------------------------------------------
# table1
# ---------------------------------------------------------------------------


def test_table1_console_and_files(capsys, tmp_path):
    base = tmp_path / "table"
    code, out, _ = run_cli(
        capsys,
        "table1",
        "--trials",
        "2",
        "--seed",
        "1",
        "--format",
        "both",
        "--out",
        str(base),
    )
    assert code == 0
    lines = out.splitlines()
    header = lines[0].split()
    assert header == ["metric", "starlink", "oneweb", "kuiper"]
    metric_lines = [ln for ln in lines if ln and not ln.startswith("wrote")]
    assert len(metric_lines) == 10  # header + nine metric rows
    assert f"wrote {base}.csv" in out and f"wrote {base}.json" in out

    with open(f"{base}.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 10
    as_dict = {row[0]: row[1:] for row in rows[1:]}
    assert as_dict["hop_count"] == ["9 / 10", "69 / 9", "12 / 13"]
    assert as_dict["type1_interrupted"] == ["no / no", "yes / yes", "no / no"]

    payload = json.loads((tmp_path / "table.json").read_text())
    assert payload["trials"] == 2
    assert payload["columns"]["oneweb"]["efficiency"]["0.01"] is None


def test_table1_is_deterministic(capsys, tmp_path):
    args = ["table1", "--trials", "2", "--seed", "9", "--format", "json"]
    first = tmp_path / "a"
    second = tmp_path / "b"
    assert run_cli(capsys, *args, "--out", str(first))[0] == 0
    assert run_cli(capsys, *args, "--out", str(second))[0] == 0
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_table1_validation(capsys):
    code, _, err = run_cli(capsys, "table1", "--trials", "0")
    assert code == 1
    assert "trials" in err


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def test_sweep_distance_outputs(capsys, tmp_path):
    base = tmp_path / "dist"
    code, out, _ = run_cli(
        capsys,
        "sweep",
        "--var",
        "distance",
        "--from",
        "4000",
        "--to",
        "10000",
        "--step",
        "3000",
        "--n-sat",
        "300",
        "--altitude",
        "550",
        "--epsilon",
        "0.1",
        "--trials",
        "5",
        "--seed",
        "2",
        "--out",
        str(base),
    )
    assert code == 0
    assert "swept distance_km over 3 values x 4 strategies" in out

    with open(f"{base}.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 12  # 3 swept values x 4 strategies
    assert [r["swept_value"] for r in rows[:4]] == ["4000.0"] * 4
    payload = json.loads((tmp_path / "dist.json").read_text())
    assert len(payload["records"]) == 12
    assert payload["schema_version"] == 1


def test_sweep_nsat_with_preset_altitude(capsys, tmp_path):
    # The preset supplies the fixed altitude; its satellite count is
    # irrelevant because that is the swept variable.
    base = tmp_path / "nsat"
    code, out, _ = run_cli(
        capsys,
        "sweep",
        "--var",
        "n-sat",
        "--from",
        "200",
        "--to",
        "400",
        "--step",
        "200",
        "--preset",
        "starlink",
        "--distance",
        "10000",
        "--epsilon",
        "0.1",
        "--trials",
        "5",
        "--seed",
        "2",
        "--strategies",
        "equal-interval",
        "--format",
        "csv",
        "--out",
        str(base),
    )
    assert code == 0
    with open(f"{base}.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["swept_value"] for r in rows] == ["200.0", "400.0"]
    assert all(r["strategy"] == "equal-interval" for r in rows)


def test_sweep_takes_its_shell_from_a_config_preset(capsys, tmp_path):
    config = tmp_path / "run.json"
    config.write_text(
        json.dumps({"preset": "oneweb", "distance_km": 8000, "epsilon": 0.1})
    )
    base = tmp_path / "preset"
    code, out, err = run_cli(
        capsys, "sweep", "--var", "distance", "--from", "4000", "--to", "4000",
        "--step", "1000", "--trials", "3", "--strategies", "ideal",
        "--config", str(config), "--format", "json", "--out", str(base),
    )
    assert (code, err) == (0, "")
    # The swept distance replaces the config's, on oneweb's 7571 km sphere.
    params = CellParams.from_preset("oneweb", epsilon=0.1, arc_angle=4000.0 / 7571.0)
    (record,) = json.loads(Path(f"{base}.json").read_text())["records"]
    assert record["swept_value"] == 4000.0
    assert record["mean_latency_ms"] == reference_latency_ms(params)
    assert record["eff_measured"] == 1.0


def test_sweep_usage_errors(capsys, tmp_path):
    common = [
        "sweep", "--var", "distance", "--from", "4000", "--to", "7000",
        "--step", "3000",
    ]
    # Fixing the swept variable is contradictory.
    code, _, err = run_cli(
        capsys, *common, "--distance", "5000", "--n-sat", "300",
        "--altitude", "550",
    )
    assert code == 1
    assert "swept variable" in err
    # Step must be positive.
    code, _, err = run_cli(
        capsys, "sweep", "--var", "distance", "--from", "4000", "--to", "7000",
        "--step", "0", "--n-sat", "300", "--altitude", "550",
    )
    assert code == 1
    # Missing fixed parameters.
    code, _, err = run_cli(capsys, *common)
    assert code == 1
    assert "missing fixed parameters" in err
    # A satellite count that is not a whole number would be truncated.
    code, _, err = run_cli(
        capsys, "sweep", "--var", "n-sat", "--from", "100.5", "--to", "100.5",
        "--step", "1", "--altitude", "500", "--distance", "4000",
        "--strategies", "ideal", "--out", str(tmp_path / "y"),
    )
    assert code == 1
    assert "n_sat must be a whole number" in err
    # Unknown strategy name.
    code, _, err = run_cli(
        capsys, *common, "--n-sat", "300", "--altitude", "550",
        "--trials", "5", "--strategies", "a-star",
        "--out", str(tmp_path / "x"),
    )
    assert code == 1
    assert "unknown strategy" in err
    # An empty or repeated strategy list.
    for chosen in (",", "ideal,ideal"):
        out = tmp_path / f"s{len(chosen)}"
        code, _, err = run_cli(
            capsys, *common, "--n-sat", "300", "--altitude", "550",
            "--trials", "5", "--strategies", chosen, "--out", str(out),
        )
        assert code == 1
        assert "without repeats" in err
        assert not Path(f"{out}.csv").exists()
