"""Tests for the Monte Carlo harness: seeding, aggregation, sweeps, table."""

import csv
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from leoroute.analysis import (
    latency_floor,
    max_hop_angle,
    min_feasible_hops,
    plan_hops,
)
from leoroute.constellation import (
    Constellation,
    sample_band,
    sample_band_complement,
)
from leoroute.errors import InvalidInputError
from leoroute.experiments import (
    CSV_FIELDS,
    CellParams,
    SweepSpec,
    TrialRecord,
    make_endpoints,
    reference_hop_count,
    reference_latency_ms,
    run_cell,
    run_table1,
    run_trials,
    splitmix64,
    strategy_router,
    sweep,
    table1_rows,
    table1_to_jsonable,
    trial_cell,
    trial_seed,
    wilson_interval,
    write_records_csv,
    write_records_json,
    write_table1_csv,
    write_table1_json,
)
from leoroute.geometry import dome_angle


# ---------------------------------------------------------------------------
# Seed derivation
# ---------------------------------------------------------------------------

_GAMMA = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


def test_splitmix64_reference_stream():
    # First three outputs of the reference splitmix64 generator seeded with
    # zero (the generator advances its state by the golden-ratio increment
    # before mixing, so output k comes from input k * increment).
    assert splitmix64(0) == 0xE220A8397B1DCDAF
    assert splitmix64(_GAMMA & _MASK64) == 0x6E789E6AA1B965F4
    assert splitmix64((2 * _GAMMA) & _MASK64) == 0x06C45D188009454F


def test_splitmix64_dispersion():
    outputs = [splitmix64(i) for i in range(1000)]
    assert all(0 <= x <= _MASK64 for x in outputs)
    assert len(set(outputs)) == len(outputs)
    # Every bit position should be exercised across a small input range.
    ones = [0] * 64
    for x in outputs:
        for b in range(64):
            ones[b] += (x >> b) & 1
    assert all(200 < c < 800 for c in ones)


def test_trial_seed_is_order_independent_and_distinct():
    base = 987654321
    first = [trial_seed(base, i) for i in range(200)]
    again = [trial_seed(base, i) for i in reversed(range(200))]
    assert first == list(reversed(again))
    assert len(set(first)) == 200
    assert all(0 <= s <= _MASK64 for s in first)
    # Different base seeds give different per-trial seeds.
    assert trial_seed(base, 7) != trial_seed(base + 1, 7)


# ---------------------------------------------------------------------------
# Wilson score interval
# ---------------------------------------------------------------------------


def test_wilson_interval_reference_values():
    low, high = wilson_interval(8, 100)
    assert low == pytest.approx(0.041093461484380624, rel=1e-12)
    assert high == pytest.approx(0.14998107700948735, rel=1e-12)
    low, high = wilson_interval(500, 1000)
    assert low == pytest.approx(0.4690696003681042, rel=1e-12)
    assert high == pytest.approx(0.5309303996318958, rel=1e-12)


def test_wilson_interval_boundary_counts():
    low, high = wilson_interval(0, 50)
    assert low == 0.0
    assert 0.05 < high < 0.09
    low, high = wilson_interval(50, 50)
    assert high == 1.0
    assert 0.91 < low < 0.95


def test_wilson_interval_contains_point_estimate_and_shrinks():
    for k, n in [(3, 30), (250, 1000), (1, 101)]:
        low, high = wilson_interval(k, n)
        assert low <= k / n <= high
    wide = wilson_interval(10, 100)
    narrow = wilson_interval(1000, 10000)
    assert (narrow[1] - narrow[0]) < (wide[1] - wide[0])


def test_wilson_interval_validation():
    with pytest.raises(InvalidInputError):
        wilson_interval(0, 0)
    with pytest.raises(InvalidInputError):
        wilson_interval(5, 4)
    with pytest.raises(InvalidInputError):
        wilson_interval(-1, 10)


# ---------------------------------------------------------------------------
# Cell parameters and endpoints
# ---------------------------------------------------------------------------


def test_cell_params_validation():
    good = dict(n_sat=100, altitude_km=550.0, arc_angle=1.0)
    CellParams(**good)
    with pytest.raises(InvalidInputError):
        CellParams(**{**good, "n_sat": 0})
    with pytest.raises(InvalidInputError):
        CellParams(**{**good, "altitude_km": 0.0})
    with pytest.raises(InvalidInputError):
        CellParams(**{**good, "arc_angle": 0.0})
    with pytest.raises(InvalidInputError):
        CellParams(**{**good, "arc_angle": math.pi + 0.01})
    with pytest.raises(InvalidInputError):
        CellParams(**{**good, "d_max_km": -1.0})
    with pytest.raises(InvalidInputError):
        CellParams(**{**good, "epsilon": 1.0})


def test_cell_params_derived_quantities():
    params = CellParams(n_sat=650, altitude_km=1200.0, arc_angle=2.0)
    assert params.radius == pytest.approx(7571.0)
    assert params.theta_max == pytest.approx(
        max_hop_angle(7571.0, 6371.0, 3000.0), rel=1e-12
    )


def test_cell_params_from_preset():
    params = CellParams.from_preset("oneweb", epsilon=0.1)
    assert params.n_sat == 650
    assert params.altitude_km == 1200.0
    assert params.epsilon == 0.1
    assert params.arc_angle == math.pi
    with pytest.raises(InvalidInputError):
        CellParams.from_preset("iridium")


def test_make_endpoints_exact_separation():
    radius = 6921.0
    for arc in (0.05, 0.7, 1.9, 3.0, math.pi):
        a, b = make_endpoints(radius, arc)
        assert dome_angle(a, b) == pytest.approx(arc, abs=1e-12)
        assert a.r == radius and b.r == radius
    with pytest.raises(InvalidInputError):
        make_endpoints(radius, 0.0)
    with pytest.raises(InvalidInputError):
        make_endpoints(radius, math.pi + 1e-9)


def test_reference_quantities_match_analysis_layer():
    params = CellParams(n_sat=800, altitude_km=500.0, arc_angle=2.4, epsilon=0.1)
    theta_max = params.theta_max
    assert reference_hop_count(params) == min_feasible_hops(2.4, theta_max)
    assert reference_latency_ms(params) == pytest.approx(
        latency_floor(2.4, theta_max, params.radius), rel=1e-15
    )


# ---------------------------------------------------------------------------
# Trial records
# ---------------------------------------------------------------------------


def test_trial_record_validation():
    ok = dict(
        trial_index=0,
        seed=1,
        strategy="equal-interval",
        status="ok",
        latency_ms=50.0,
        n_hops_final=9,
        efficiency=0.99,
    )
    TrialRecord(**ok)
    with pytest.raises(InvalidInputError):
        TrialRecord(**{**ok, "status": "lost"})
    # Latency must be present exactly when the route completed.
    with pytest.raises(InvalidInputError):
        TrialRecord(**{**ok, "latency_ms": None})
    with pytest.raises(InvalidInputError):
        TrialRecord(**{**ok, "status": "type2_interrupted"})
    TrialRecord(
        **{
            **ok,
            "status": "type2_interrupted",
            "latency_ms": None,
            "efficiency": None,
        }
    )


def test_ideal_strategy_yields_reference_values():
    params = CellParams(n_sat=500, altitude_km=550.0, arc_angle=2.0, epsilon=0.1)
    records = run_trials(params, "ideal", trials=5, base_seed=42)
    assert len(records) == 5
    reference = reference_latency_ms(params)
    for rec in records:
        assert rec.status == "ok"
        assert rec.latency_ms == pytest.approx(reference, rel=1e-15)
        assert rec.efficiency == 1.0
        assert rec.n_hops_final == reference_hop_count(params)


def test_run_trials_validation():
    params = CellParams(n_sat=100, altitude_km=550.0, arc_angle=1.0)
    with pytest.raises(InvalidInputError):
        run_trials(params, "equal-interval", trials=0, base_seed=1)
    with pytest.raises(InvalidInputError):
        run_trials(params, "dijkstra", trials=5, base_seed=1)


def test_run_trials_identical_for_any_worker_count():
    params = CellParams(n_sat=500, altitude_km=550.0, arc_angle=2.0, epsilon=0.1)
    serial = run_trials(params, "equal-interval", trials=24, base_seed=99, threads=1)
    two = run_trials(params, "equal-interval", trials=24, base_seed=99, threads=2)
    four = run_trials(params, "equal-interval", trials=24, base_seed=99, threads=4)
    assert serial == two == four
    assert [r.trial_index for r in serial] == list(range(24))
    assert [r.seed for r in serial] == [trial_seed(99, i) for i in range(24)]


def test_per_trial_efficiency_never_exceeds_one():
    params = CellParams(n_sat=800, altitude_km=550.0, arc_angle=2.2, epsilon=0.1)
    for strategy in ("equal-interval", "min-deflection", "max-stepsize"):
        records = run_trials(params, strategy, trials=40, base_seed=5)
        completed = [r for r in records if r.status != "type2_interrupted"]
        assert completed, strategy
        for rec in completed:
            assert 0.0 < rec.efficiency <= 1.0 + 1e-12


# ---------------------------------------------------------------------------
# Cell aggregation and interruption estimates
# ---------------------------------------------------------------------------


def test_run_cell_matches_manual_reduction():
    params = CellParams(n_sat=400, altitude_km=550.0, arc_angle=1.4449, epsilon=0.1)
    records = run_trials(params, "equal-interval", trials=80, base_seed=3)
    agg = run_cell(params, "equal-interval", trials=80, base_seed=3)
    type2 = [r for r in records if r.status == "type2_interrupted"]
    completed = [r for r in records if r.status != "type2_interrupted"]
    assert agg.trials == 80
    assert agg.type2_count == len(type2)
    assert agg.type2_rate == pytest.approx(len(type2) / 80, abs=1e-15)
    assert agg.type2_ci == wilson_interval(len(type2), 80)
    assert agg.measured_count == len(completed)
    assert agg.mean_latency_ms == pytest.approx(
        sum(r.latency_ms for r in completed) / len(completed), rel=1e-12
    )
    assert agg.mean_efficiency == pytest.approx(
        sum(r.efficiency for r in completed) / len(completed), rel=1e-12
    )
    plan = plan_hops(params.arc_angle, params.theta_max, params.n_sat, params.epsilon)
    assert agg.n_hat == plan.n_hat
    assert agg.reliable_angle == plan.reliable_angle
    assert agg.type1_interrupted == plan.type1_interrupted


def test_failed_plan_interrupts_every_trial_without_sampling():
    # A shell too sparse for its tolerance fails at the planning stage on
    # the first candidate hop count; the harness then reports certain
    # interruption instead of wasting Monte Carlo rounds.
    params = CellParams.from_preset("oneweb", epsilon=0.01)
    plan = plan_hops(params.arc_angle, params.theta_max, params.n_sat, 0.01)
    assert plan.type1_interrupted and plan.iterations_used == 1
    records = run_trials(params, "equal-interval", trials=6, base_seed=0)
    assert all(r.status == "type2_interrupted" for r in records)
    assert all(r.latency_ms is None and r.n_hops_final == 0 for r in records)
    agg = run_cell(params, "equal-interval", trials=100, base_seed=0)
    assert agg.type2_rate == 1.0
    assert agg.type2_ci == wilson_interval(100, 100)
    assert agg.type1_interrupted
    assert agg.measured_count == 0 and agg.mean_efficiency is None


def test_sparse_constellation_interrupts_greedy_walks():
    # Ten satellites cannot chain pole-to-pole hops limited to ~0.44 rad.
    params = CellParams(n_sat=10, altitude_km=550.0, arc_angle=math.pi, epsilon=0.1)
    records = run_trials(params, "min-deflection", trials=30, base_seed=17)
    assert all(r.status == "type2_interrupted" for r in records)


@pytest.mark.parametrize(
    "strategy", ["equal-interval", "min-deflection", "max-stepsize"]
)
def test_trials_route_their_full_shell_with_the_cell_plan(strategy):
    """Each trial equals a router call on its whole shell and the cell's plan.

    A trial routes on the band around the arc first and draws the rest of
    its shell only when it cannot certify that route; either way its record
    must be the route over all N satellites (band, then complement, from
    the trial's seed) under the plan for N satellites.
    """
    cells = (
        # At 10250 km the plan for N = 800 (n_hat 12) differs from the one
        # for the N + 2 satellites of a trial shell (n_hat 11).
        CellParams(
            n_sat=800, altitude_km=500.0, arc_angle=10250.0 / 6871.0, epsilon=0.1
        ),
        # About half of its equal-interval band routes fail to certify, so
        # those trials draw the complement and route again.
        CellParams(n_sat=500, altitude_km=500.0, arc_angle=math.pi, epsilon=0.5),
        # A type-I equal-interval plan: its band is the whole sphere.
        CellParams.from_preset("oneweb", epsilon=0.1),
        # Dense: its equal-interval routes certify on the band alone.
        CellParams.from_preset("starlink", epsilon=0.1),
    )
    router = strategy_router(strategy)
    for params in cells:
        plan = plan_hops(
            params.arc_angle, params.theta_max, params.n_sat, params.epsilon
        )
        records = run_trials(params, strategy, trials=6, base_seed=11)
        src, dst = make_endpoints(params.radius, params.arc_angle)
        band_sine = trial_cell(params, strategy, plan).band_sine
        for rec in records:
            rng = np.random.default_rng(rec.seed)
            band = sample_band(rng, params.n_sat, band_sine)
            rest = sample_band_complement(rng, params.n_sat - len(band), band_sine)
            shell = Constellation.from_unit_rows(
                params.r_earth_km, params.altitude_km, np.vstack([band, rest])
            ).with_extra_points([src, dst])
            route = router(shell, params.d_max_km, plan)
            assert rec.status == route.status.value
            assert rec.n_hops_final == route.n_hops
            assert rec.latency_ms == (None if route.interrupted else route.latency)
        agg = run_cell(params, strategy, trials=6, base_seed=11)
        assert (agg.n_hat, agg.reliable_angle) == (plan.n_hat, plan.reliable_angle)


def test_strategy_router_rejects_ideal_and_unknown_names():
    for name in ("ideal", "shortest-path"):
        with pytest.raises(InvalidInputError):
            strategy_router(name)


def test_estimate_type2_accepts_explicit_params():
    params = CellParams(n_sat=800, altitude_km=550.0, arc_angle=1.4449, epsilon=0.1)
    agg = run_cell(params, "equal-interval", trials=100, base_seed=3)
    assert not agg.type1_interrupted
    assert agg.type2_rate <= 0.05
    assert agg.type2_ci[0] <= agg.type2_rate <= agg.type2_ci[1]


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


def test_sweep_spec_validation():
    fixed = {
        "n_sat": 800,
        "altitude_km": 500.0,
        "d_max_km": 3000.0,
        "epsilon": 0.1,
        "distance_km": 10000.0,
    }
    with pytest.raises(InvalidInputError):
        SweepSpec("inclination", (1.0,), fixed, trials=10, base_seed=0)
    with pytest.raises(InvalidInputError):
        SweepSpec("n_sat", (), fixed, trials=10, base_seed=0)
    with pytest.raises(InvalidInputError):
        SweepSpec("n_sat", (400.0, 400.0), fixed, trials=10, base_seed=0)
    with pytest.raises(InvalidInputError):
        SweepSpec("n_sat", (400.0, 800.0), fixed, trials=0, base_seed=0)
    incomplete = {k: v for k, v in fixed.items() if k != "epsilon"}
    with pytest.raises(InvalidInputError):
        SweepSpec("n_sat", (400.0, 800.0), incomplete, trials=10, base_seed=0)


def test_sweep_spec_cell_derives_arc_from_distance():
    fixed = {
        "n_sat": 800,
        "d_max_km": 3000.0,
        "epsilon": 0.1,
        "distance_km": 10000.0,
    }
    spec = SweepSpec("altitude_km", (500.0, 1200.0), fixed, trials=10, base_seed=0)
    cell = spec.cell(1200.0)
    assert cell.altitude_km == 1200.0
    assert cell.arc_angle == pytest.approx(10000.0 / 7571.0, rel=1e-12)
    assert cell.n_sat == 800 and cell.epsilon == 0.1


def test_sweep_record_layout_and_estimates():
    spec = SweepSpec(
        variable="n_sat",
        values=(400.0, 800.0),
        fixed={
            "altitude_km": 550.0,
            "d_max_km": 3000.0,
            "epsilon": 0.1,
            "distance_km": 10000.0,
        },
        trials=30,
        base_seed=3,
    )
    records = sweep(spec)
    assert len(records) == 8  # 2 swept values x 4 strategies
    assert [r.strategy for r in records[:4]] == [
        "ideal",
        "equal-interval",
        "min-deflection",
        "max-stepsize",
    ]
    for rec in records:
        assert rec.trials == 30 and rec.seed == 3
        if rec.strategy == "equal-interval":
            # Closed-form estimates ride along on successful plans.
            assert (rec.eff_contour is None) == (rec.eff_binomial is None)
        else:
            assert rec.eff_contour is None and rec.eff_binomial is None
    with pytest.raises(InvalidInputError):
        sweep(spec, strategies=("a-star",))


def test_sweep_type2_rate_falls_with_satellite_count():
    # With a 10000 km arc at 550 km altitude and a 10% tolerance, planning
    # is infeasible outright for small shells, then routing failures fade
    # as the constellation densifies.
    spec = SweepSpec(
        variable="n_sat",
        values=(200.0, 300.0, 800.0, 1500.0),
        fixed={
            "altitude_km": 550.0,
            "d_max_km": 3000.0,
            "epsilon": 0.1,
            "distance_km": 10000.0,
        },
        trials=150,
        base_seed=3,
    )
    records = sweep(spec, strategies=("equal-interval",))
    rates = {int(r.swept_value): r.type2_rate for r in records}
    assert rates[200] == 1.0
    assert rates[300] == 1.0
    assert rates[800] < 0.05
    assert rates[1500] < 0.02
    values = [rates[n] for n in (200, 300, 800, 1500)]
    assert all(b <= a for a, b in zip(values, values[1:]))


def test_sweep_latency_monotone_in_distance():
    spec = SweepSpec(
        variable="distance_km",
        values=(4000.0, 8000.0, 12000.0, 16000.0),
        fixed={
            "n_sat": 800,
            "altitude_km": 500.0,
            "d_max_km": 3000.0,
            "epsilon": 0.1,
        },
        trials=60,
        base_seed=7,
    )
    records = sweep(spec, strategies=("ideal", "equal-interval"))
    ideal = [r.mean_latency_ms for r in records if r.strategy == "ideal"]
    equal = [r.mean_latency_ms for r in records if r.strategy == "equal-interval"]
    assert all(b >= a for a, b in zip(equal, equal[1:]))
    # The optimum lower-bounds the mean of any strategy at every distance.
    for floor_ms, mean_ms in zip(ideal, equal):
        assert floor_ms <= mean_ms


def test_sweep_latency_decreases_with_altitude():
    # At a fixed 10000 km distance and a 1% tolerance, higher shells plan
    # fewer, longer hops and the mean latency falls accordingly.
    spec = SweepSpec(
        variable="altitude_km",
        values=(1100.0, 1200.0, 1400.0, 1600.0, 2000.0),
        fixed={
            "n_sat": 800,
            "d_max_km": 3000.0,
            "epsilon": 0.01,
            "distance_km": 10000.0,
        },
        trials=300,
        base_seed=11,
    )
    records = sweep(spec, strategies=("equal-interval",))
    latencies = [r.mean_latency_ms for r in records]
    assert all(lat is not None for lat in latencies)
    assert all(b < a for a, b in zip(latencies, latencies[1:]))


def test_sweep_is_deterministic_across_worker_counts():
    spec = SweepSpec(
        variable="distance_km",
        values=(6000.0, 9000.0),
        fixed={
            "n_sat": 500,
            "altitude_km": 550.0,
            "d_max_km": 3000.0,
            "epsilon": 0.1,
        },
        trials=20,
        base_seed=21,
    )
    assert sweep(spec, threads=1) == sweep(spec, threads=4)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _small_sweep_records():
    spec = SweepSpec(
        variable="distance_km",
        values=(6000.0, 9000.0),
        fixed={
            "n_sat": 500,
            "altitude_km": 550.0,
            "d_max_km": 3000.0,
            "epsilon": 0.1,
        },
        trials=20,
        base_seed=21,
    )
    return sweep(spec)


def test_csv_round_trip(tmp_path):
    records = _small_sweep_records()
    path = tmp_path / "records.csv"
    write_records_csv(records, path)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0].keys()) == list(CSV_FIELDS)
    assert len(rows) == len(records)
    for row, rec in zip(rows, records):
        assert row["strategy"] == rec.strategy
        assert float(row["swept_value"]) == rec.swept_value
        assert int(row["trials"]) == rec.trials
        assert int(row["seed"]) == rec.seed
        if rec.mean_latency_ms is None:
            assert row["mean_latency_ms"] == ""
        else:
            # repr round-trips doubles exactly.
            assert float(row["mean_latency_ms"]) == rec.mean_latency_ms
        if rec.eff_contour is None:
            assert row["eff_contour"] == ""
        else:
            assert float(row["eff_contour"]) == rec.eff_contour


def test_json_mirrors_csv(tmp_path):
    records = _small_sweep_records()
    path = tmp_path / "records.json"
    write_records_json(records, path)
    payload = json.loads(path.read_text())
    assert payload["schema_version"] == 1
    assert len(payload["records"]) == len(records)
    for entry, rec in zip(payload["records"], records):
        assert tuple(entry) == CSV_FIELDS
        for field in CSV_FIELDS:
            assert entry[field] == getattr(rec, field)


def test_serialization_is_byte_stable(tmp_path):
    records = _small_sweep_records()
    a_csv, b_csv = tmp_path / "a.csv", tmp_path / "b.csv"
    a_json, b_json = tmp_path / "a.json", tmp_path / "b.json"
    write_records_csv(records, a_csv)
    write_records_csv(records, b_csv)
    write_records_json(records, a_json)
    write_records_json(records, b_json)
    assert a_csv.read_bytes() == b_csv.read_bytes()
    assert a_json.read_bytes() == b_json.read_bytes()


# ---------------------------------------------------------------------------
# Summary table over the preset shells
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_table():
    return run_table1(trials=40, base_seed=1)


def test_table1_closed_form_columns(small_table):
    by_name = {col.preset: col for col in small_table.columns}
    assert list(by_name) == ["starlink", "oneweb", "kuiper"]

    starlink = by_name["starlink"]
    assert starlink.altitude_km == 550.0 and starlink.n_sat == 11927
    assert starlink.contact_mean_rad == pytest.approx(0.016229, abs=5e-7)
    assert starlink.n_hat == {0.1: 9, 0.01: 10}
    assert starlink.reliable_angle_rad[0.1] == pytest.approx(0.0386, abs=2e-3)
    assert starlink.reliable_angle_rad[0.01] == pytest.approx(0.0481, abs=2e-3)
    assert starlink.type1 == {0.1: False, 0.01: False}

    oneweb = by_name["oneweb"]
    assert oneweb.contact_mean_rad == pytest.approx(0.069508, abs=5e-7)
    assert oneweb.type1 == {0.1: True, 0.01: True}
    # The 1% plan fails outright: certain interruption, no efficiency.
    assert oneweb.type2_probability[0.01] == 1.0
    assert oneweb.efficiency[0.01] is None
    assert oneweb.measured_count[0.01] == 0

    kuiper = by_name["kuiper"]
    assert kuiper.contact_mean_rad == pytest.approx(0.031157, abs=5e-7)
    assert kuiper.n_hat == {0.1: 12, 0.01: 13}


def test_table1_monte_carlo_columns(small_table):
    by_name = {col.preset: col for col in small_table.columns}
    for preset in ("starlink", "kuiper"):
        col = by_name[preset]
        for eps in (0.1, 0.01):
            assert col.type2_probability[eps] <= 0.05
            assert col.measured_count[eps] > 0
            assert 0.9 < col.efficiency[eps] <= 1.0
            low, high = col.type2_ci[eps]
            assert low <= col.type2_probability[eps] <= high


def test_table1_rows_layout(small_table):
    rows = table1_rows(small_table)
    assert len(rows) == 9
    assert [row[0] for row in rows] == [
        "altitude_km",
        "n_sat",
        "contact_mean_rad",
        "hop_count",
        "reliable_angle_rad",
        "min_sats_sufficient",
        "type1_interrupted",
        "type2_probability",
        "efficiency",
    ]
    assert all(len(row) == 4 for row in rows)  # metric + three presets
    as_dict = {row[0]: row[1:] for row in rows}
    assert as_dict["hop_count"][0] == "9 / 10"
    assert as_dict["type1_interrupted"][1] == "yes / yes"
    # Missing efficiency (certain interruption) renders as a dash.
    assert as_dict["efficiency"][1].endswith("/ -")


def test_table1_serialization(tmp_path, small_table):
    csv_path = tmp_path / "table.csv"
    json_path = tmp_path / "table.json"
    write_table1_csv(small_table, csv_path)
    write_table1_json(small_table, json_path)
    with open(csv_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["metric", "starlink", "oneweb", "kuiper"]
    assert len(rows) == 10  # header + nine metrics

    payload = json.loads(json_path.read_text())
    assert payload["schema_version"] == 1
    assert payload["trials"] == 40
    oneweb = payload["columns"]["oneweb"]
    assert oneweb["efficiency"]["0.01"] is None
    assert oneweb["type2_probability"]["0.01"] == 1.0
    assert payload["columns"]["starlink"]["hop_count"] == {"0.1": 9, "0.01": 10}

    again = tmp_path / "again.json"
    write_table1_json(small_table, again)
    assert again.read_bytes() == json_path.read_bytes()


def test_table1_respects_requested_epsilons():
    result = run_table1(epsilons=(0.1,), trials=1, base_seed=0)
    assert result.epsilons == (0.1,)
    for col in result.columns:
        assert set(col.n_hat) == {0.1}
