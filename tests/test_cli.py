"""Tests for the command-line front end: parsing, output, exit codes."""

import csv
import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest

from leoroute.analysis import max_hop_angle, plan_hops
from leoroute.cli import _SETTINGS, main, parse_angle
from leoroute.constellation import load_constellation, sample_bpp, save_constellation
from leoroute.errors import InternalConsistencyError, InvalidInputError
from leoroute.experiments import (
    CellParams,
    make_endpoints,
    reference_latency_ms,
    trial_cell,
)
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


@pytest.mark.parametrize("command", [[], ["analyze"], ["route"], ["table1"], ["sweep"]])
def test_help_exits_zero(capsys, command):
    code, out, _ = run_cli(capsys, *command, "--help")
    assert code == 0
    assert out


def test_no_command_exits_one(capsys):
    code, out, err = run_cli(capsys)
    assert (code, out) == (1, "")
    assert err


@pytest.mark.parametrize(
    "argv",
    [
        ["frobnicate"],
        ["analyze", "--preset", "kuiper", "--bogus"],
        ["sweep", "--from", "4000", "--to", "4000", "--step", "1", "--n-sat", "300",
         "--altitude", "550", "--trials", "3", "--strategies", "ideal"],
        ["route", "--preset", "kuiper", "--strategy", "a-star"],
        ["analyze", "--preset", "mars"],
        ["route", "--preset", "kuiper", "--seed", "1.5"],
        # No abbreviated flags.
        ["analyze", "--pre", "starlink"],
        ["analyze", "--pre=starlink"],
        # No short help flag, and --version belongs to the group alone.
        ["analyze", "-h"],
        ["route", "--preset", "kuiper", "--version"],
    ],
    ids=[
        "unknown-command", "unknown-option", "missing-var", "unknown-strategy",
        "unknown-preset", "fractional-seed", "abbreviated-flag",
        "abbreviated-flag-equals", "short-help", "command-version",
    ],
)
def test_parse_errors_exit_one(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err
    assert list(tmp_path.iterdir()) == []


def test_a_repeated_flag_takes_its_last_value(capsys):
    last = run_cli(capsys, "analyze", "--preset", "kuiper", "--epsilon", "0.01")
    assert last[0] == 0
    repeated = ("--preset", "oneweb", "--epsilon", "0.5")
    assert run_cli(capsys, "analyze", *repeated, "--preset", "kuiper",
                   "--epsilon", "0.01") == last


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--preset", "kuiper", "--epsilon", "0.1", "--dome-angle", "pi/2"],
        ["route", "--preset", "oneweb", "--strategy", "min-deflection", "--seed", "3",
         "--dome-angle", "2.0"],
    ],
    ids=["analyze", "route"],
)
def test_flag_equals_value_is_flag_then_value(capsys, argv):
    spaced = run_cli(capsys, *argv)
    assert spaced[0] == 0
    joined = [f"{flag}={value}" for flag, value in zip(argv[1::2], argv[2::2])]
    assert run_cli(capsys, argv[0], *joined) == spaced


def test_a_value_may_start_with_a_dash(capsys, tmp_path):
    """The word after a flag is its value, whatever it starts with."""
    code, out, err = run_cli(
        capsys, "sweep", "--var", "distance", "--from", "-inf", "--to", "7000",
        "--step", "3000", "--n-sat", "300", "--altitude", "550",
        "--out", str(tmp_path / "s"),
    )
    assert (code, out) == (1, "")
    assert err == "error: --from, --to and --step must be finite\n"
    code, out, err = run_cli(
        capsys, "analyze", "--preset", "kuiper", "--dome-angle", "-pi"
    )
    assert (code, out) == (1, "")
    assert err == "error: cannot parse angle '-pi'\n"


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
        # A bool is no number, and an int setting takes no fraction.
        (
            ["analyze", "--dome-angle", "1.0"],
            {"n_sat": True, "altitude_km": 500, "epsilon": 0.1},
        ),
        (
            ["analyze", "--dome-angle", "1.0"],
            {"n_sat": 800.7, "altitude_km": 500, "epsilon": 0.1},
        ),
        (
            ["analyze", "--dome-angle", "1.0"],
            {"n_sat": 800, "altitude_km": 500, "epsilon": 0.1, "d_max_km": True},
        ),
        (["table1", "--trials", "2"], {"seed": 1.5}),
        # Every value is checked, also where the command would not read it:
        # the file's type-I plan samples no shell, and ideal samples none.
        (["route", "--constellation", "shell.json"], {"seed": "abc"}),
        (["route", "--preset", "oneweb", "--strategy", "ideal"], {"seed": "abc"}),
    ],
    ids=[
        "route-seed", "analyze-n_sat", "analyze-epsilon", "table1-seed", "sweep-trials",
        "analyze-n_sat-bool", "analyze-n_sat-fraction", "analyze-d_max-bool",
        "table1-seed-fraction", "route-file-seed-unread", "route-ideal-seed-unread",
    ],
)
def test_config_value_of_wrong_type_exits_one(
    capsys, tmp_path, monkeypatch, argv, config
):
    monkeypatch.chdir(tmp_path)
    if "shell.json" in argv:
        save_constellation(sample_bpp(650, 6371.0, 1200.0, 0), "shell.json")
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    code, _, err = run_cli(capsys, *argv, "--config", str(path))
    assert code == 1
    assert err.startswith("error: config value ")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("n_sat", [800, 800.0, "800"])
def test_config_int_setting_takes_integral_values(capsys, tmp_path, n_sat):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"n_sat": n_sat, "altitude_km": 500, "epsilon": 0.1}))
    angle = ("--dome-angle", "1.0")
    code, out, _ = run_cli(capsys, "analyze", "--config", str(path), *angle)
    assert code == 0
    flags = ("--n-sat", "800", "--altitude", "500", "--epsilon", "0.1")
    assert out == run_cli(capsys, "analyze", *flags, *angle)[1]


#: For each setting: a command line that reads it, and two values other than
#: its default that lead to different outcomes.
SETTING_CASES = {
    "preset": (["analyze", "--dome-angle", "1.0"], "kuiper", "oneweb"),
    "n_sat": (["analyze", "--altitude", "500", "--epsilon", "0.1"], 800, 2000),
    "altitude_km": (["analyze", "--n-sat", "800", "--epsilon", "0.1"], 500.0, 1200.0),
    "distance_km": (
        ["sweep", "--var", "n-sat", "--from", "800", "--to", "800", "--step", "1",
         "--altitude", "500", "--epsilon", "0.1", "--trials", "3",
         "--strategies", "ideal,max-stepsize", "--out", "out"],
        4000.0,
        8000.0,
    ),
    "d_max_km": (["analyze", "--preset", "kuiper"], 2500.0, 2000.0),
    "epsilon": (["analyze", "--preset", "kuiper"], 0.1, 0.05),
    "trials": (
        ["sweep", "--var", "distance", "--from", "4000", "--to", "4000", "--step", "1",
         "--n-sat", "300", "--altitude", "550", "--epsilon", "0.1",
         "--strategies", "ideal", "--out", "out"],
        3,
        5,
    ),
    "seed": (
        ["route", "--n-sat", "800", "--altitude", "500", "--epsilon", "0.1",
         "--strategy", "min-deflection"],
        1,
        2,
    ),
}


@pytest.mark.parametrize("key", list(_SETTINGS))
def test_config_value_acts_as_its_flag(capsys, tmp_path, monkeypatch, key):
    """A config-file value gives the outcome of the same flag, and a flag
    beats the file."""
    monkeypatch.chdir(tmp_path)
    argv, value, other = SETTING_CASES[key]
    flag = _SETTINGS[key][0]

    def outcome(*extra, config=None):
        """Exit code, stdout, stderr and the bytes of each written file."""
        if config is not None:
            Path("run.json").write_text(json.dumps(config))
            extra += ("--config", "run.json")
        for old in Path().glob("out.*"):
            old.unlink()
        result = run_cli(capsys, *argv, *extra)
        return result, {p.name: p.read_bytes() for p in sorted(Path().glob("out.*"))}

    as_flag = outcome(flag, str(value))
    assert outcome(config={key: value}) == as_flag
    assert outcome(flag, str(value), config={key: other}) == as_flag
    # Neither the default nor the other value gives the same outcome.
    assert outcome() != as_flag
    assert outcome(flag, str(other)) != as_flag


def test_route_constellation_file_not_json_exits_one(capsys, tmp_path):
    path = tmp_path / "shell.json"
    path.write_text("not json")
    code, out, err = run_cli(capsys, "route", "--constellation", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error: malformed constellation file ")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_route_constellation_file_with_non_finite_satellite_exits_one(
    capsys, tmp_path, bad
):
    # Python's json writes and reads NaN and Infinity; such a row is no
    # point, whether the file holds unit rows or (version 1) polar angles.
    path = tmp_path / "shell.json"
    save_constellation(sample_bpp(300, 6371.0, 550.0, 0), path)
    rows = json.loads(path.read_text())
    rows["satellites"][7][2] = bad
    angles = {"r_earth_km": 6371.0, "altitude_km": 550.0}
    angles["satellites"] = [{"theta_rad": 1.0, "phi_rad": 0.1 * k} for k in range(300)]
    angles["satellites"][7]["phi_rad"] = bad
    for payload in (rows, angles):
        path.write_text(json.dumps(payload))
        code, out, err = run_cli(
            capsys, "route", "--constellation", str(path), "--strategy", "min-deflection"
        )
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
def test_route_saved_shell_prints_the_seeded_payload(capsys, tmp_path, strategy):
    """``route --constellation`` over a saved shell prints, byte for byte,
    what ``route --seed`` prints for the same shell."""
    path = tmp_path / "shell.json"
    save_constellation(sample_bpp(2000, 6371.0, 550.0, 4), path)
    flags = ("--epsilon", "0.1", "--dome-angle", "2.0", "--strategy", strategy)
    seeded = run_cli(
        capsys, "route", "--n-sat", "2000", "--altitude", "550", "--seed", "4", *flags
    )
    saved = run_cli(capsys, "route", "--constellation", str(path), *flags)
    assert seeded[0] == 0
    assert saved == seeded


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


def whole_shell_band(n_sat, seed, s):
    """The band of a shell picked out of the whole ``sample_bpp`` shell."""
    units = sample_bpp(n_sat, 6371.0, 550.0, seed).unit_vectors
    ids = np.flatnonzero(np.abs(units[:, 1]) <= s)
    return ids, units[ids]


def check_seeded_route(capsys, monkeypatch, params, strategy, seed, argv):
    """``route --seed`` prints, byte for byte, what it prints when it picks
    the band out of the whole ``sample_bpp`` shell; its hops are the route
    on the whole shell; and it draws the whole shell only when the band
    route is not certified. Returns whether the band certified the route
    (None when the plan routes nothing)."""
    drawn = []

    def spy(*args):
        drawn.append(args)
        return sample_bpp(*args)

    with monkeypatch.context() as patch:
        patch.setattr("leoroute.cli.sample_bpp", spy)
        result = run_cli(capsys, *argv)
    with monkeypatch.context() as patch:
        patch.setattr("leoroute.cli.sample_bpp_band", whole_shell_band)
        assert run_cli(capsys, *argv) == result

    plan = plan_hops(params.arc_angle, params.theta_max, params.n_sat, params.epsilon)
    if strategy == "equal-interval" and plan.immediate_type1:
        assert drawn == []
        return None
    cell = trial_cell(params, strategy, plan)
    units = sample_bpp(params.n_sat, 6371.0, params.altitude_km, seed).unit_vectors
    band = np.abs(units[:, 1]) <= cell.band_sine
    certified = bool(
        band.all()
        or cell.route_batch(cell.stack_one(units[band]))[0].band_reach
        <= cell.halfwidth
    )
    assert len(drawn) == (0 if certified else 1)
    (route,) = cell.route_batch(cell.stack_one(units))
    assert json.loads(result[1])["hops"] == list(route.hops)
    return certified


@pytest.mark.parametrize("dome", ["pi", "2.0"])
@pytest.mark.parametrize("epsilon", ["0.1", "0.01"])
@pytest.mark.parametrize("preset", ["starlink", "kuiper", "oneweb"])
@pytest.mark.parametrize("strategy", ["equal-interval", "min-deflection", "max-stepsize"])
def test_route_seed_draws_only_the_band(
    capsys, monkeypatch, preset, strategy, epsilon, dome
):
    params = CellParams.from_preset(
        preset, arc_angle=parse_angle(dome), epsilon=float(epsilon)
    )
    argv = ("route", "--preset", preset, "--strategy", strategy, "--epsilon",
            epsilon, "--dome-angle", dome, "--seed", "7")
    check_seeded_route(capsys, monkeypatch, params, strategy, 7, argv)


def test_route_seed_draws_the_whole_shell_for_an_uncertified_band(
    capsys, monkeypatch
):
    certified = []
    for n_sat, d_max, arc, strategy, seed in itertools.product(
        (60, 400), (1500.0, 5000.0), (0.3, 2.0, math.pi),
        ("equal-interval", "min-deflection", "max-stepsize"), range(3),
    ):
        params = CellParams(n_sat, 550.0, arc, d_max, epsilon=0.1)
        argv = ("route", "--n-sat", str(n_sat), "--altitude", "550", "--d-max",
                repr(d_max), "--dome-angle", repr(arc), "--strategy", strategy,
                "--epsilon", "0.1", "--seed", str(seed))
        certified.append(
            check_seeded_route(capsys, monkeypatch, params, strategy, seed, argv)
        )
    assert certified.count(True) > 0 and certified.count(False) > 0


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


@pytest.mark.parametrize(
    "flag, value",
    [("--from", "nan"), ("--from", "-inf"), ("--to", "inf"), ("--to", "nan"),
     ("--step", "nan"), ("--step", "inf")],
)
def test_sweep_range_must_be_finite(capsys, tmp_path, flag, value):
    """A range bound that is not finite is a usage error: exit code 1, one
    line on stderr and no file written."""
    bounds = {"--from": "4000", "--to": "7000", "--step": "3000", flag: value}
    code, out, err = run_cli(
        capsys, "sweep", "--var", "distance",
        *(f"{key}={text}" for key, text in bounds.items()),
        "--n-sat", "300", "--altitude", "550", "--trials", "3",
        "--out", str(tmp_path / "s"),
    )
    assert code == 1
    assert out == ""
    assert err == "error: --from, --to and --step must be finite\n"
    assert list(tmp_path.iterdir()) == []
