"""Tests for the Monte Carlo harness: seeding, aggregation, sweeps, table."""

import csv
import itertools
import json
import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leoroute.analysis import (
    latency_floor,
    max_hop_angle,
    min_feasible_hops,
    plan_hops,
)
from leoroute.constellation import (
    WHOLE_BAND,
    Constellation,
    sample_band_complement,
    sample_band_counts,
    sample_bands,
    sample_bpp,
)
from leoroute import experiments
from leoroute.errors import InvalidInputError
from leoroute.experiments import (
    _TABLE1_ROWS,
    CSV_FIELDS,
    STRATEGIES,
    CellParams,
    SweepSpec,
    TrialRecord,
    block_seed,
    contact_band,
    make_endpoints,
    reference_hop_count,
    reference_latency_ms,
    run_cell,
    run_table1,
    run_trials,
    splitmix64,
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
from leoroute.geometry import R_EARTH_KM, dome_angle
from leoroute.routing import (
    route_equal_interval,
    route_equal_interval_batch,
    route_max_stepsize,
    route_min_deflection,
)


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
    for altitude in (0.0, -550.0, math.nan, math.inf):
        with pytest.raises(InvalidInputError, match="altitude_km"):
            CellParams(**{**good, "altitude_km": altitude})
    for r_earth in (0.0, -6371.0, math.nan, math.inf):
        with pytest.raises(InvalidInputError, match="r_earth_km"):
            CellParams(**{**good, "r_earth_km": r_earth})
    with pytest.raises(InvalidInputError):
        CellParams(**{**good, "arc_angle": 0.0})
    with pytest.raises(InvalidInputError):
        CellParams(**{**good, "arc_angle": math.pi + 0.01})
    with pytest.raises(InvalidInputError):
        CellParams(**{**good, "d_max_km": -1.0})
    with pytest.raises(InvalidInputError):
        CellParams(**{**good, "epsilon": 1.0})
    # An unlimited hop range is a valid cell.
    assert CellParams(**{**good, "d_max_km": math.inf}).theta_max > 0.0


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


@pytest.mark.parametrize("strategy", STRATEGIES[1:])
def test_run_trials_identical_for_any_worker_count(monkeypatch, strategy):
    """130 trials are three blocks, so two workers start even on one CPU."""
    started = []
    pool = experiments.ProcessPoolExecutor

    def counted_pool(max_workers):
        started.append(max_workers)
        return pool(max_workers=max_workers)

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", counted_pool)
    monkeypatch.setattr(experiments, "_cpu_count", lambda: 2)
    params = CellParams(n_sat=500, altitude_km=550.0, arc_angle=2.0, epsilon=0.1)
    serial = run_trials(params, strategy, trials=130, base_seed=99, threads=1)
    assert started == []
    two = run_trials(params, strategy, trials=130, base_seed=99, threads=2)
    assert started == [2]
    assert serial == two
    assert [r.trial_index for r in serial] == list(range(130))


def test_worker_processes_capped_at_cpu_count(monkeypatch):
    """A worker count above the CPU count starts one worker per CPU; the
    executor is faked, so no process starts."""
    asked = []

    class InProcessExecutor:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", InProcessExecutor)
    monkeypatch.setattr(experiments, "_cpu_count", lambda: 2)
    params = CellParams(n_sat=500, altitude_km=550.0, arc_angle=2.0, epsilon=0.1)
    # Workers take whole blocks of 64 trials, so 130 trials give three.
    many = run_trials(params, "equal-interval", trials=130, base_seed=99, threads=64)
    assert asked == [2]
    assert many == run_trials(params, "equal-interval", 130, base_seed=99, threads=1)
    # One block never starts a pool.
    run_trials(params, "equal-interval", trials=64, base_seed=99, threads=64)
    assert asked == [2]


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


def _spy_run_trials(monkeypatch):
    """The arguments and records of every ``experiments.run_trials`` call."""
    calls = []
    real = experiments.run_trials

    def spy(*args):
        records = real(*args)
        calls.append((args, records))
        return records

    monkeypatch.setattr(experiments, "run_trials", spy)
    return calls


_SMALL_SHELL = CellParams(n_sat=400, altitude_km=550.0, arc_angle=1.4449, epsilon=0.1)


@pytest.mark.parametrize(
    "params, strategy",
    [
        (_SMALL_SHELL, "ideal"),
        # An immediate type-I plan: every record is the same interruption.
        (CellParams.from_preset("oneweb", epsilon=0.01), "equal-interval"),
        # A type-I plan that still routes.
        (CellParams.from_preset("oneweb", epsilon=0.1), "equal-interval"),
        *[(_SMALL_SHELL, strategy) for strategy in STRATEGIES[1:]],
    ],
    ids=["ideal", "oneweb-0.01", "oneweb-0.1", *STRATEGIES[1:]],
)
def test_run_cell_matches_manual_reduction(monkeypatch, params, strategy):
    """``run_cell`` reduces the records of its one ``run_trials`` call."""
    calls = _spy_run_trials(monkeypatch)
    agg = run_cell(params, strategy, trials=80, base_seed=3)
    [(args, records)] = calls
    assert args == (params, strategy, 80, 3, 1)
    type2 = [r for r in records if r.status == "type2_interrupted"]
    completed = [r for r in records if r.status != "type2_interrupted"]
    assert (agg.strategy, agg.trials, agg.base_seed) == (strategy, 80, 3)
    assert agg.type2_count == len(type2)
    assert agg.type2_rate == pytest.approx(len(type2) / 80, abs=1e-15)
    assert agg.type2_ci == wilson_interval(len(type2), 80)
    assert agg.measured_count == len(completed)
    if completed:
        assert agg.mean_latency_ms == pytest.approx(
            sum(r.latency_ms for r in completed) / len(completed), rel=1e-12
        )
        assert agg.mean_efficiency == pytest.approx(
            sum(r.efficiency for r in completed) / len(completed), rel=1e-12
        )
    else:
        assert agg.mean_latency_ms is None and agg.mean_efficiency is None
    if strategy == "ideal":
        assert (agg.n_hat, agg.reliable_angle, agg.type1_interrupted) == (
            None, None, False
        )
        return
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

    A trial routes on a region of the band around the arc first and draws
    the rest of its shell only when it cannot certify that route; either way
    its record must be the route over all N satellites (region, then
    complement, from the trial's seed) under the plan for N satellites. Each cell runs a
    block of trials, routed as one batch, and 5 more, so trials are routed
    in batches, with collisions, repairs and complement draws among them.
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
    router = {
        "equal-interval": route_equal_interval,
        "min-deflection": route_min_deflection,
        "max-stepsize": route_max_stepsize,
    }[strategy]
    for params in cells:
        plan = plan_hops(
            params.arc_angle, params.theta_max, params.n_sat, params.epsilon
        )
        cell = trial_cell(params, strategy, plan)
        trials = experiments._BLOCK_TRIALS + 5
        records = run_trials(params, strategy, trials=trials, base_seed=11)
        src, dst = make_endpoints(params.radius, params.arc_angle)
        band_sine, region = cell.band_sine, cell.region
        for rec in records:
            # The region is a lane of its block's stream, and the rest of the
            # shell comes from the trial's own stream.
            block, lane = divmod(rec.trial_index, experiments._BLOCK_TRIALS)
            rng = np.random.default_rng(block_seed(11, block))
            counts = sample_band_counts(
                rng, params.n_sat, band_sine, experiments._BLOCK_TRIALS, region
            ).tolist()
            k = counts[lane]
            units = np.empty((params.n_sat, 3))
            drawn = sample_bands([(rng, counts[: lane + 1])], band_sine, region)
            units[:k] = drawn[lane, :k]
            rest = np.random.default_rng(trial_seed(11, rec.trial_index))
            sample_band_complement(rest, band_sine, units[k:], region)
            shell = Constellation.from_unit_rows(
                params.r_earth_km, params.altitude_km, units
            ).with_extra_points([src, dst])
            route = router(shell, params.d_max_km, plan)
            assert rec.status == route.status.value
            assert rec.n_hops_final == route.n_hops
            assert rec.latency_ms == (None if route.interrupted else route.latency)
        agg = run_cell(params, strategy, trials=trials, base_seed=11)
        assert (agg.n_hat, agg.reliable_angle) == (plan.n_hat, plan.reliable_angle)


@pytest.fixture
def batch_sizes(monkeypatch):
    """``(first trial, lanes)`` of every batch routed from now on. Each batch
    is checked as it comes: it is a run of consecutive lanes, one piece for
    each block it takes lanes from, and a batch of more than one lane holds
    at most ``_BATCH_ROWS`` region rows."""
    sizes = []
    run_batch = experiments._run_batch

    def logged(cell, base_seed, pieces, start):
        block = experiments._BLOCK_TRIALS
        at = start
        for k, (_, part) in enumerate(pieces):
            assert part and (k == 0 or at % block == 0)
            assert at // block == (at + len(part) - 1) // block
            at += len(part)
        counts = [count for _, part in pieces for count in part]
        rows = len(counts) * (max(counts) + 2)
        assert len(counts) == 1 or rows <= experiments._BATCH_ROWS
        sizes.append((start, len(counts)))
        return run_batch(cell, base_seed, pieces, start)

    monkeypatch.setattr(experiments, "_run_batch", logged)
    return sizes


def one_by_one(trials):
    """The batches of ``trials`` trials routed one at a time."""
    return [(i, 1) for i in range(trials)]


def lane_counts(cell, base_seed, trials):
    """The region count of each of the first ``trials`` lanes of a cell:
    each block's generator draws its 64 counts first."""
    block, n_sat = experiments._BLOCK_TRIALS, cell.params.n_sat
    counts = []
    for b in range(-(-trials // block)):
        rng = np.random.default_rng(block_seed(base_seed, b))
        counts += sample_band_counts(
            rng, n_sat, cell.band_sine, block, cell.region
        ).tolist()
    return counts[:trials]


def greedy_batches(counts, budget):
    """``(first lane, lanes)`` of the batches of lanes whose regions hold
    ``counts``: a batch takes the next lane while its lanes times its
    largest count plus 2 stay within ``budget``, and takes one lane at
    least. The reference of the harness's batching rule."""
    batches, first = [], 0
    for lane in range(1, len(counts)):
        if (lane - first + 1) * (max(counts[first : lane + 1]) + 2) > budget:
            batches.append((first, lane - first))
            first = lane
    return batches + [(first, len(counts) - first)]


def block_batches(cell, base_seed, start, stop):
    """One batch for each block: the batching of a harness whose batches
    never cross a block, as the reference for batches that do."""
    for first in range(start, stop, experiments._BLOCK_TRIALS):
        rng = np.random.default_rng(
            block_seed(base_seed, first // experiments._BLOCK_TRIALS)
        )
        counts = sample_band_counts(
            rng,
            cell.params.n_sat,
            cell.band_sine,
            experiments._BLOCK_TRIALS,
            cell.region,
        )[: stop - first].tolist()
        yield [(rng, counts)]


def test_batched_trials_equal_trials_routed_one_at_a_time(
    monkeypatch, batch_sizes
):
    """Routing a cell's equal-interval trials together changes no record."""
    cells = (
        CellParams.from_preset("starlink", epsilon=0.1),
        CellParams.from_preset("kuiper", epsilon=0.01),
        # Type-I plan with 68 targets: nearly every trial collides.
        CellParams.from_preset("oneweb", epsilon=0.1),
        # Repairs and complement draws in about half the trials.
        CellParams(n_sat=500, altitude_km=500.0, arc_angle=math.pi, epsilon=0.5),
        CellParams(
            n_sat=800, altitude_km=500.0, arc_angle=15750.0 / 6871.0, epsilon=0.1
        ),
        # Endpoints one hop apart: every trial is a direct hop.
        CellParams(n_sat=800, altitude_km=500.0, arc_angle=0.3, epsilon=0.1),
    )

    trials = experiments._BLOCK_TRIALS + 3
    batched = {
        params: run_trials(params, "equal-interval", trials, base_seed=5)
        for params in cells
    }
    # Each cell's two blocks fit the budget, so they are one batch.
    assert batch_sizes == [(0, trials)] * len(cells)
    batch_sizes.clear()
    monkeypatch.setattr(experiments, "_BATCH_ROWS", 0)
    for params, records in batched.items():
        assert run_trials(params, "equal-interval", trials, 5) == records
    assert batch_sizes == one_by_one(trials) * len(cells)


#: Distances (km) of the benchmark's strategy-ordering sweep on the
#: 800-satellite, 500 km shell.
SWEEP_DISTANCES_KM = tuple(4000.0 + 250.0 * k for k in range(48))


def test_trial_batches_stay_within_their_budget(monkeypatch, batch_sizes):
    """A block of every table1 cell and the 200 trials of every benchmark
    sweep cell are one batch. Trials whose region stack would pass
    ``_BATCH_ROWS`` split into batches of as many consecutive lanes as fit,
    across blocks, and their records are those of batches of one."""
    block = experiments._BLOCK_TRIALS
    cells = [
        (CellParams.from_preset(preset, epsilon=eps), ("equal-interval",))
        for preset in ("starlink", "oneweb", "kuiper")
        for eps in (0.1, 0.01)
    ]
    cells += [
        (
            CellParams(n_sat=800, altitude_km=500.0, arc_angle=d / 6871.0, epsilon=0.1),
            ("equal-interval", "min-deflection", "max-stepsize"),
        )
        for d in SWEEP_DISTANCES_KM
    ]
    for params, strategies in cells:
        plan = plan_hops(
            params.arc_angle, params.theta_max, params.n_sat, params.epsilon
        )
        trials = block if len(strategies) == 1 else 200
        for strategy in strategies:
            batch_sizes.clear()
            run_trials(params, strategy, trials, base_seed=3)
            # An immediately type-I equal-interval plan routes nothing.
            skipped = strategy == "equal-interval" and plan.immediate_type1
            assert batch_sizes == ([] if skipped else [(0, trials)])

    # Type-I equal-interval plans route on the whole sphere. With 3000
    # satellites a batch holds 21 lanes, and the last one takes the first
    # block's last lane and the second block's 6; with 20000, 3.
    split = CellParams(3000, 550.0, math.pi, d_max_km=1000.0, epsilon=0.5)
    batch_sizes.clear()
    records = run_trials(split, "equal-interval", 70, base_seed=3)
    assert batch_sizes == [(0, 21), (21, 21), (42, 21), (63, 7)]
    assert {r.status for r in records} == {"repaired", "type2_interrupted"}
    # This plan fails at once, so run_trials routes none of its trials; its
    # chunk routes them all the same.
    whole = CellParams(20000, 550.0, math.pi, d_max_km=100.0, epsilon=0.1)
    plan = plan_hops(whole.arc_angle, whole.theta_max, whole.n_sat, whole.epsilon)
    chunk = (trial_cell(whole, "equal-interval", plan), 3, 0, 7)
    batch_sizes.clear()
    chunk_records = experiments._run_chunk(chunk)
    assert batch_sizes == [(0, 3), (3, 3), (6, 1)]
    batch_sizes.clear()
    monkeypatch.setattr(experiments, "_BATCH_ROWS", 0)
    assert run_trials(split, "equal-interval", 70, base_seed=3) == records
    assert experiments._run_chunk(chunk) == chunk_records
    assert batch_sizes == one_by_one(70) + one_by_one(7)


#: Greedy cells, each with the n_hat its plan is cut to (None: as planned).
GREEDY_BATCH_CELLS = (
    # 60 satellites: most walks dead-end, and interrupted min-deflection
    # band routes draw the rest of their shell.
    (CellParams(n_sat=60, altitude_km=500.0, arc_angle=2.0, epsilon=0.1), None),
    # The strategy-ordering sweep shell at both ends of its range.
    (
        CellParams(
            n_sat=800, altitude_km=500.0, arc_angle=4000.0 / 6871.0, epsilon=0.1
        ),
        None,
    ),
    (
        CellParams(
            n_sat=800, altitude_km=500.0, arc_angle=15750.0 / 6871.0, epsilon=0.1
        ),
        None,
    ),
    # Plans cut short, so that the 4 n_hat cap ends many walks, some of
    # them with the goal one hop away after the last relay.
    (
        CellParams(
            n_sat=800, altitude_km=500.0, arc_angle=15750.0 / 6871.0, epsilon=0.1
        ),
        2,
    ),
    (
        CellParams(
            n_sat=800, altitude_km=500.0, arc_angle=11000.0 / 6871.0, epsilon=0.1
        ),
        1,
    ),
    # Endpoints one hop apart: every walk is a direct hop.
    (CellParams(n_sat=800, altitude_km=500.0, arc_angle=0.3, epsilon=0.1), None),
)


@pytest.mark.parametrize("strategy", ["min-deflection", "max-stepsize"])
def test_batched_greedy_trials_equal_trials_routed_one_at_a_time(
    strategy, monkeypatch, batch_sizes
):
    """Routing a cell's greedy trials in one lockstep walk changes no record."""
    import leoroute.experiments as experiments

    drawn = []

    def complement(*args):
        drawn.append(args)
        return sample_band_complement(*args)

    monkeypatch.setattr(experiments, "sample_band_complement", complement)
    capped = dead_ends = 0
    for params, n_hat in GREEDY_BATCH_CELLS:
        with monkeypatch.context() as patch:
            if n_hat is not None:
                patch.setattr(
                    experiments,
                    "plan_hops",
                    lambda *args, n_hat=n_hat: replace(plan_hops(*args), n_hat=n_hat),
                )
            plan = experiments.plan_hops(
                params.arc_angle, params.theta_max, params.n_sat, params.epsilon
            )
            trials = experiments._BLOCK_TRIALS + 5
            batch_sizes.clear()
            records = run_trials(params, strategy, trials, base_seed=5)
            assert batch_sizes == [(0, trials)]
            batch_sizes.clear()
            patch.setattr(experiments, "_BATCH_ROWS", 0)
            assert run_trials(params, strategy, trials, 5) == records
            assert batch_sizes == one_by_one(trials)
        for rec in records:
            if rec.status == "type2_interrupted":
                capped += rec.n_hops_final == 4 * plan.n_hat
                dead_ends += rec.n_hops_final < 4 * plan.n_hat
    assert capped > 0 and dead_ends > 0
    # Only min-deflection reaches past its band: max-stepsize keeps to it,
    # and none of these walks comes near its patch's edge.
    assert bool(drawn) == (strategy == "min-deflection")


def band_first_route(cell, units):
    """The band-first route of ``units``, checked against the route on the
    whole shell, and whether its band certified it: then the whole shell
    must not have been asked for."""
    ids = np.flatnonzero(np.abs(units[:, 1]) <= cell.band_sine)
    asked = []

    def whole():
        asked.append(True)
        return units

    route = cell.route_rows(len(units), ids, units[ids], whole)
    assert [route] == cell.route_batch(cell.stack_one(units))
    sure = bool(
        len(ids) < len(units)
        and cell.route_batch(cell.stack_one(units[ids]))[0].band_reach
        <= cell.halfwidth
    )
    assert asked == ([] if sure or len(ids) == len(units) else [True])
    return route, sure


def test_band_first_route_equals_the_route_on_the_whole_shell():
    """``TrialCell.route_rows`` (what ``leoroute route`` calls) routes on the
    band first and returns the route on every satellite it is given, with
    the shell's own IDs, whether the band certifies it or not."""
    certified = Counter()
    for preset, strategy, epsilon, seed in itertools.product(
        ("starlink", "kuiper", "oneweb"), STRATEGIES[1:], (0.1, 0.01), range(3)
    ):
        params = CellParams.from_preset(preset, epsilon=epsilon)
        plan = plan_hops(
            params.arc_angle, params.theta_max, params.n_sat, params.epsilon
        )
        if strategy == "equal-interval" and plan.immediate_type1:
            continue
        cell = trial_cell(params, strategy, plan)
        units = sample_bpp(params.n_sat, R_EARTH_KM, params.altitude_km, seed)
        certified[band_first_route(cell, units.unit_vectors)[1]] += 1
    assert certified[True] > 0

    statuses, plans = Counter(), Counter()
    for n_sat, d_max, arc, strategy, seed in itertools.product(
        (60, 400, 2000), (1500.0, 5000.0), (0.3, 2.0, math.pi), STRATEGIES[1:],
        range(3),
    ):
        params = CellParams(n_sat, 550.0, arc, d_max, epsilon=0.1)
        plan = plan_hops(arc, params.theta_max, n_sat, params.epsilon)
        if strategy == "equal-interval" and plan.immediate_type1:
            continue
        cell = trial_cell(params, strategy, plan)
        units = sample_bpp(n_sat, R_EARTH_KM, 550.0, seed).unit_vectors
        route, sure = band_first_route(cell, units)
        statuses[route.status.value] += 1
        plans[plan.type1_interrupted] += 1
        certified[sure] += 1
    assert set(statuses) == {"ok", "repaired", "type2_interrupted"}
    assert plans[True] > 0 and plans[False] > 0
    assert certified[False] > 0

    # Every satellite has a twin, so ties must still go to the lower ID.
    units = np.repeat(sample_bpp(1000, R_EARTH_KM, 550.0, 1).unit_vectors, 2, axis=0)
    params = CellParams(2000, 550.0, 2.0, epsilon=0.1)
    plan = plan_hops(2.0, params.theta_max, params.n_sat, params.epsilon)
    for strategy in STRATEGIES[1:]:
        route, sure = band_first_route(trial_cell(params, strategy, plan), units)
        assert sure and all(h % 2 == 0 for h in route.hops[1:-1])

    # A gap in the contact-law band around mid-arc pushes the min-deflection
    # walk out of the band, so its band route is not certified.
    arc = 2.6
    units = sample_bpp(3000, R_EARTH_KM, 550.0, 8).unit_vectors
    along = np.arctan2(units[:, 0], units[:, 2])
    gap = (np.abs(units[:, 1]) <= math.sin(2.0 * contact_band(3000))) & (
        np.abs(along) < 0.3
    )
    params = CellParams(3000 - int(gap.sum()), 550.0, arc, epsilon=0.1)
    plan = plan_hops(arc, params.theta_max, params.n_sat, params.epsilon)
    cell = trial_cell(params, "min-deflection", plan)
    route, sure = band_first_route(cell, units[~gap])
    assert route.status.value == "ok" and not sure


def patch_and_whole_routes(cell, seed, lanes):
    """The routes of ``lanes`` trial shells through their regions, band
    first (:meth:`TrialCell.route_band_first`), the shells it re-routed,
    the routes through the whole shells (each shell's region rows, then its
    own drawn complement), the region counts and the whole shells' rows."""
    params, s, region = cell.params, cell.band_sine, cell.region
    rng = np.random.default_rng(seed)
    counts = sample_band_counts(rng, params.n_sat, s, lanes, region).tolist()
    patches = cell.stack(sample_bands([(rng, counts)], s, region), counts)
    rows = np.empty((lanes, params.n_sat + 2, 3))
    for b, k in enumerate(counts):
        rows[b, :k] = patches.rows[b, :k]
        sample_band_complement(rng, s, rows[b, k : params.n_sat], region)
    wholes = cell.stack(rows, [params.n_sat] * lanes)

    def whole(redo):
        return cell.stack(rows[redo], [params.n_sat] * len(redo))

    routes, redo = cell.route_band_first(patches, params.n_sat, whole, cell.span)
    return routes, redo, cell.route_batch(wholes), counts, rows


@settings(max_examples=100, deadline=None)
@given(
    shell=st.sampled_from(["800", "starlink", "kuiper", "oneweb"]),
    arc=st.floats(0.3, math.pi),
    strategy=st.sampled_from(STRATEGIES[1:]),
    epsilon=st.sampled_from([0.1, 0.01]),
    narrow=st.just(1.0) | st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32),
)
def test_certified_patch_routes_are_the_routes_on_the_whole_shell(
    shell, arc, strategy, epsilon, narrow, seed
):
    """Whenever a trial's route through its region is certified, it is hop
    for hop the route through the region rows plus that trial's drawn
    complement. A greedy walk's patch may also be narrowed toward
    a/2 + theta_max (``narrow`` < 1), since its certificate must hold for
    any patch; equal-interval keeps its windows of half-width w about its
    targets, which its certificate needs."""
    if shell == "800":
        params = CellParams(800, 500.0, arc, epsilon=epsilon)
    else:
        params = CellParams.from_preset(shell, epsilon=epsilon, arc_angle=arc)
    plan = plan_hops(arc, params.theta_max, params.n_sat, params.epsilon)
    if strategy == "equal-interval" and plan.immediate_type1:
        return
    cell = trial_cell(params, strategy, plan)
    if cell.span < math.pi:
        assert strategy != "equal-interval"
        span = arc / 2.0 + params.theta_max + narrow * cell.halfwidth
        drawn = span * (1.0 + 1e-9)
        region = (0.5 * math.pi, 0.0, 1, drawn) if drawn < math.pi else WHOLE_BAND
        cell = replace(cell, span=span, region=region)
    routes, redo, wholes, counts, _ = patch_and_whole_routes(cell, seed, 8)
    n_sat = params.n_sat
    for k, (route, on_whole) in enumerate(zip(routes, wholes)):
        if k in redo:
            assert route == on_whole
            continue
        # The region route's src and dst are IDs counts[k] and counts[k] + 1.
        ids = list(range(counts[k])) + [n_sat, n_sat + 1]
        assert [ids[h] for h in route.hops] == list(on_whole.hops)
        assert route.status == on_whole.status
        assert route.hop_distances == on_whole.hop_distances


@settings(max_examples=100, deadline=None)
@given(
    shell=st.sampled_from(["800", "3000", "starlink", "kuiper"]),
    arc=st.floats(0.3, math.pi),
    epsilon=st.sampled_from([0.1, 0.01]),
    seed=st.integers(0, 2**32),
)
def test_certified_window_routes_are_the_routes_on_the_whole_shell(
    shell, arc, epsilon, seed
):
    """An equal-interval trial draws the satellites of the band within w of
    a target's longitude first (its windows, or the one window they cover
    where two of them meet), and no band satellite of its complement lies
    in a target's window. A route through them, certified by its band
    reach (at most w), is hop for hop the route through the whole shell:
    the drawn rows, then the drawn complement."""
    if shell in ("800", "3000"):
        params = CellParams(int(shell), 500.0, arc, epsilon=epsilon)
    else:
        params = CellParams.from_preset(shell, epsilon=epsilon, arc_angle=arc)
    plan = plan_hops(arc, params.theta_max, params.n_sat, params.epsilon)
    if plan.type1_interrupted or plan.n_hat < 2:
        return
    n, n_sat, lanes = plan.n_hat, params.n_sat, 8
    cell = trial_cell(params, "equal-interval", plan)
    reach = cell.halfwidth * (1.0 + 1e-9)
    first = 0.5 * math.pi - 0.5 * arc + arc / n
    if 2.0 * reach < arc / n:
        assert cell.region == (first, arc / n, n - 1, reach)
    else:
        assert cell.region[2] == 1
    routes, redo, wholes, counts, rows = patch_and_whole_routes(cell, seed, lanes)
    centres = first + np.arange(n - 1) * (arc / n)

    def from_targets(rows):
        """Each row's distance in longitude from the nearest target."""
        along = np.arctan2(rows[:, 2], rows[:, 0])[:, None] - centres
        return np.abs(np.remainder(along + math.pi, 2.0 * math.pi) - math.pi).min(1)

    for b, (route, on_whole) in enumerate(zip(routes, wholes)):
        rest = rows[b, counts[b] : n_sat]
        in_window = from_targets(rest) < 0.999 * reach
        assert not (in_window & (np.abs(rest[:, 1]) < cell.band_sine)).any()
        assert (from_targets(rows[b, : counts[b]]) <= 1.001 * reach).all()
        if route.band_reach > cell.halfwidth:
            assert b in redo and route == on_whole
            continue
        ids = list(range(counts[b])) + [n_sat, n_sat + 1]
        assert [ids[h] for h in route.hops] == list(on_whole.hops)
        assert route.status == on_whole.status
        assert route.hop_distances == on_whole.hop_distances


def covers(region, low, high):
    """Whether one window of ``region`` holds the longitudes [low, high], to
    rounding."""
    if region == WHOLE_BAND:
        return True
    first, pitch, count, r = region
    centres = first + pitch * np.arange(count)
    return bool(((centres - r <= low + 1e-12) & (high <= centres + r + 1e-12)).any())


def test_each_cell_draws_a_region_that_holds_its_target_windows(monkeypatch):
    """The region a trial draws first, as (windows, half-width): on starlink
    and kuiper a window of half-width w about each equal-interval target; on
    the sweep shell, whose target windows meet, the one window they cover;
    a greedy walk's patch a/2 + theta_max + w; and a whole-sphere band
    whole. Each holds every target's window |phi - phi_j| <= w (or the
    greedy patch). A starlink block routes stacks of its window satellites:
    fewer than half those of the patch a/2 + w that it drew before."""
    regions = {}
    cells = [
        (preset, eps, CellParams.from_preset(preset, epsilon=eps))
        for preset in ("starlink", "kuiper", "oneweb")
        for eps in (0.1, 0.01)
    ]
    cells += [
        ("800", d, CellParams(800, 500.0, d / 6871.0, epsilon=0.1))
        for d in SWEEP_DISTANCES_KM
    ]
    for name, value, params in cells:
        plan = plan_hops(
            params.arc_angle, params.theta_max, params.n_sat, params.epsilon
        )
        if plan.immediate_type1:
            continue
        arc, n = params.arc_angle, plan.n_hat
        cell = trial_cell(params, "equal-interval", plan)
        assert cell.span == math.pi
        regions[name, value] = (cell.region[2], round(cell.region[3], 4))
        reach = cell.halfwidth * (1.0 + 1e-9)
        if name == "800":
            assert cell.region[3] == pytest.approx(arc / 2.0 - arc / n + reach)
        for j in range(1, n):
            target = 0.5 * math.pi - 0.5 * arc + j * arc / n
            assert covers(cell.region, target - reach, target + reach)
        for strategy in ("min-deflection", "max-stepsize"):
            greedy = trial_cell(params, strategy, plan)
            span = greedy.span
            assert span == pytest.approx(
                arc / 2.0 + params.theta_max + greedy.halfwidth
            )
            assert greedy.region[2] == 1
            assert covers(greedy.region, 0.5 * math.pi - span, 0.5 * math.pi + span)
    sweep_regions = [regions.pop(("800", d)) for d in SWEEP_DISTANCES_KM]
    assert regions == {
        ("starlink", 0.1): (8, 0.0556),
        ("starlink", 0.01): (9, 0.0556),
        ("kuiper", 0.1): (11, 0.1067),
        ("kuiper", 0.01): (12, 0.1067),
        ("oneweb", 0.1): (1, round(math.pi, 4)),
    }
    assert {count for count, _ in sweep_regions} == {1}
    assert (sweep_regions[0], sweep_regions[-1]) == ((1, 0.3599), (1, 1.2459))

    widths = []

    def logged(stack, *args):
        widths.append(max(stack.counts))
        return route_equal_interval_batch(stack, *args)

    row = replace(experiments.STRATEGY["equal-interval"], router=logged)
    monkeypatch.setitem(experiments.STRATEGY, "equal-interval", row)
    params = CellParams.from_preset("starlink", epsilon=0.1)
    run_trials(params, "equal-interval", trials=64, base_seed=3)
    plan = plan_hops(params.arc_angle, params.theta_max, params.n_sat, params.epsilon)
    cell = trial_cell(params, "equal-interval", plan)
    counts = sample_band_counts(
        np.random.default_rng(block_seed(3, 0)),
        params.n_sat,
        cell.band_sine,
        64,
        cell.region,
    )
    assert widths[0] == max(counts)
    patch = (0.5 * math.pi, 0.0, 1, params.arc_angle / 2.0 + cell.halfwidth)
    rng = np.random.default_rng(block_seed(3, 0))
    counts = sample_band_counts(rng, params.n_sat, cell.band_sine, 64, patch)
    assert widths[0] < 0.5 * max(counts)


def test_a_walk_that_overruns_dst_toward_the_patch_edge_is_rerouted():
    """A max-stepsize walk keeps to its belt, so its band certifies it; but
    a relay that overruns dst toward the patch's edge at a high latitude is
    in hop range of the band outside the patch, so its trial re-routes on
    the whole shell."""
    params = CellParams(60, 500.0, 2.0, epsilon=0.1)
    plan = plan_hops(params.arc_angle, params.theta_max, params.n_sat, params.epsilon)
    cell = trial_cell(params, "max-stepsize", plan)
    assert cell.span < math.pi and cell.region[2] == 1

    def at(along, latitude):
        """The unit row at ``along`` rad in longitude from the arc's
        midpoint and ``latitude`` rad off the arc."""
        phi = 0.5 * math.pi + along
        return [
            math.cos(latitude) * math.cos(phi),
            math.sin(latitude),
            math.cos(latitude) * math.sin(phi),
        ]

    # src and dst sit at -1 and +1 rad; the fifth relay is 0.15 rad past dst.
    relays = [(-0.6, 0.08), (-0.2, 0.25), (0.21, 0.44), (0.66, 0.5), (1.15, 0.5)]
    patch = np.array([at(*r) for r in relays + [(1.0, 0.12)]])
    (route,) = cell.route_batch(cell.stack_one(patch))
    assert route.status.value == "ok" and route.hops == (6, 0, 1, 2, 3, 4, 5, 7)
    assert route.band_reach <= cell.halfwidth
    # A satellite of the band just outside the patch: the rest of the shell.
    units = np.vstack([patch, [at(cell.region[3] + 0.01, 0.3)]])
    asked = []

    def whole(redo):
        asked.append(redo)
        return cell.stack_one(units)

    (patch_first,), redo = cell.route_band_first(
        cell.stack_one(patch), len(units), whole, cell.span
    )
    assert redo == [0] and asked == [[0]]
    assert [patch_first] == cell.route_batch(cell.stack_one(units))
    # The same rows as a whole band are certified by the band alone.
    _, redo = cell.route_band_first(cell.stack_one(patch), len(units), whole, math.pi)
    assert redo == []


def test_trial_cell_rejects_ideal_and_unknown_names():
    params = CellParams.from_preset("kuiper", epsilon=0.1)
    plan = plan_hops(params.arc_angle, params.theta_max, params.n_sat, params.epsilon)
    for name in ("ideal", "shortest-path"):
        with pytest.raises(InvalidInputError):
            trial_cell(params, name, plan)
    # Endpoints closer than the arc threshold of great_arc: the trials'
    # stacks are not checked, so the cell is.
    with pytest.raises(InvalidInputError, match="same point"):
        run_trials(replace(params, arc_angle=1e-10), "min-deflection", 1, 0)


def test_each_trial_batch_reroutes_in_one_more_batch(monkeypatch):
    """Each block draws its region counts once, before the batch that holds
    its first lane draws. Runs of consecutive lanes, across blocks, are one
    batch each, as many lanes as the budget holds. Each batch draws its
    regions in one call, routes them in one router call, and routes the
    whole shells of the trials it cannot certify in as few more calls as
    hold ``_BATCH_ROWS`` rows of whole shells each (one shell at least),
    each after drawing its complement: under the default budget never one
    call per trial, and never through a one-shell router."""
    params = CellParams(n_sat=500, altitude_km=500.0, arc_angle=math.pi, epsilon=0.5)
    plan = plan_hops(params.arc_angle, params.theta_max, params.n_sat, params.epsilon)
    cell = trial_cell(params, "equal-interval", plan)
    log = []

    def counted(stack, *args):
        log.append(("route", len(stack.counts)))
        return route_equal_interval_batch(stack, *args)

    def bands(pieces, *args):
        log.append(("bands", sum(len(part) for _, part in pieces)))
        return sample_bands(pieces, *args)

    def band_counts(*args):
        log.append(("counts", args[3]))
        return sample_band_counts(*args)

    def complement(*args):
        log.append(("rest", 1))
        return sample_band_complement(*args)

    def forbidden(*args):
        raise AssertionError("a trial went through a one-shell router")

    row = replace(experiments.STRATEGY["equal-interval"], router=counted)
    monkeypatch.setitem(experiments.STRATEGY, "equal-interval", row)
    monkeypatch.setattr(experiments, "sample_bands", bands)
    monkeypatch.setattr(experiments, "sample_band_counts", band_counts)
    monkeypatch.setattr(experiments, "sample_band_complement", complement)
    for name in ("route_equal_interval", "route_min_deflection", "route_max_stepsize"):
        monkeypatch.setattr(experiments, name, forbidden)
    block = experiments._BLOCK_TRIALS
    trials = 2 * block + 5
    counts = lane_counts(cell, 11, trials)
    # The default budget: all 133 lanes are one batch, and its whole shells
    # (502 rows each) go 130 to a call. Then one of 9 to 11 lanes a batch,
    # whose whole shells are re-routed one at a time: these regions (one
    # window) hold 76 +- 7 satellites, at most 100.
    for rows, whole in ((experiments._BATCH_ROWS, 130), (1000, 1)):
        log.clear()
        monkeypatch.setattr(experiments, "_BATCH_ROWS", rows)
        records = run_trials(params, "equal-interval", trials, base_seed=11)
        assert len(records) == trials
        batches = greedy_batches(counts, rows)
        at, drawn_blocks, rerouted, calls = 0, 0, [], []
        for first, lanes in batches:
            # The counts of every block this batch takes lanes from, and of
            # the block that its next lane begins, which decides its end.
            while drawn_blocks * block <= min(first + lanes, trials - 1):
                assert log[at] == ("counts", block)
                at += 1
                drawn_blocks += 1
            assert log[at : at + 2] == [("bands", lanes), ("route", lanes)]
            at += 2
            sizes = []
            while at < len(log) and log[at] == ("rest", 1):
                size = 1
                while log[at + size] == ("rest", 1):
                    size += 1
                assert log[at + size] == ("route", size)
                at += size + 1
                sizes.append(size)
            drawn = sum(sizes)
            assert sizes == [min(whole, drawn - lo) for lo in range(0, drawn, whole)]
            rerouted.append(drawn)
            calls += sizes
        assert at == len(log)
        assert any(rerouted)
        # Under the default budget a call re-routes many trials.
        assert (max(calls) > 1) == (whole > 1)
        assert any(first // block != (first + n - 1) // block for first, n in batches)
        assert (len(batches) > 1) == (rows == 1000)


#: Cells whose trials re-route: about half of the equal-interval band
#: routes on the first and the min-deflection band routes on the second do
#: not certify.
REROUTING_CELLS = (
    (CellParams(n_sat=500, altitude_km=500.0, arc_angle=math.pi, epsilon=0.5),
     "equal-interval"),
    (CellParams(n_sat=60, altitude_km=500.0, arc_angle=2.0, epsilon=0.1),
     "min-deflection"),
    (CellParams(n_sat=800, altitude_km=500.0, arc_angle=2.0, epsilon=0.1),
     "max-stepsize"),
)


@pytest.mark.parametrize("strategy", STRATEGIES[1:])
def test_fewer_trials_give_a_prefix_of_the_records(strategy):
    """The records of 40 trials are the first 40 of 150, which cross two
    block boundaries."""
    params = CellParams(n_sat=800, altitude_km=500.0, arc_angle=2.0, epsilon=0.1)
    many = run_trials(params, strategy, trials=150, base_seed=21)
    assert run_trials(params, strategy, trials=40, base_seed=21) == many[:40]


def test_records_are_equal_for_one_two_and_three_workers(monkeypatch):
    """130 trials are three blocks, one worker each when three may run: a
    chunk split that is not block-aligned would change the records."""
    monkeypatch.setattr(experiments, "_cpu_count", lambda: 3)
    for params, strategy in REROUTING_CELLS[:2]:
        one = run_trials(params, strategy, trials=130, base_seed=8, threads=1)
        for threads in (2, 3):
            assert run_trials(params, strategy, 130, 8, threads=threads) == one


def test_records_do_not_depend_on_the_batch_size(monkeypatch, batch_sizes):
    """Batches of at least 1, 2 or 3 trials, forced through ``_BATCH_ROWS``,
    give the records of whole blocks."""
    for params, strategy in REROUTING_CELLS:
        plan = plan_hops(
            params.arc_angle, params.theta_max, params.n_sat, params.epsilon
        )
        cell = trial_cell(params, strategy, plan)
        records = run_trials(params, strategy, trials=70, base_seed=4)
        counts = lane_counts(cell, 4, 70)
        for size in (1, 2, 3):
            # ``size`` lanes always fit this budget, and more fit while
            # their regions are narrower than the widest.
            budget = size * (max(counts) + 2)
            batch_sizes.clear()
            with monkeypatch.context() as patch:
                patch.setattr(experiments, "_BATCH_ROWS", budget)
                assert run_trials(params, strategy, 70, base_seed=4) == records
            assert batch_sizes == greedy_batches(counts, budget)
            assert all(lanes >= size for _, lanes in batch_sizes[:-1])


@pytest.mark.parametrize("strategy", STRATEGIES[1:])
def test_merged_batches_equal_one_batch_per_block(
    strategy, monkeypatch, batch_sizes
):
    """The 200 trials of a benchmark sweep cell, at both ends of its range,
    are one batch across four blocks, and give the records of one batch per
    block. Their region counts vary, so the per-block batches come from a
    batcher that cuts at each block's end, not from a budget."""
    for distance in (4000.0, 15750.0):
        params = CellParams(
            n_sat=800, altitude_km=500.0, arc_angle=distance / 6871.0, epsilon=0.1
        )
        batch_sizes.clear()
        merged = run_trials(params, strategy, 200, base_seed=6)
        assert batch_sizes == [(0, 200)]
        batch_sizes.clear()
        with monkeypatch.context() as patch:
            patch.setattr(experiments, "_batches", block_batches)
            assert run_trials(params, strategy, 200, base_seed=6) == merged
        assert batch_sizes == [(0, 64), (64, 64), (128, 64), (192, 8)]


def test_whole_sphere_batches_cross_blocks_and_equal_block_batches(
    monkeypatch, batch_sizes
):
    """Oneweb's epsilon 0.1 equal-interval trials draw the whole sphere, so
    each region holds all 650 satellites: the budget takes 100 lanes a
    batch, across the first block's end, and a budget of 64 such shells
    forces one batch per block. The records are the same."""
    params = CellParams.from_preset("oneweb", epsilon=0.1)
    merged = run_trials(params, "equal-interval", 130, base_seed=9)
    assert batch_sizes == [(0, 100), (100, 30)]
    batch_sizes.clear()
    monkeypatch.setattr(experiments, "_BATCH_ROWS", 64 * (650 + 2))
    assert run_trials(params, "equal-interval", 130, base_seed=9) == merged
    assert batch_sizes == [(0, 64), (64, 64), (128, 2)]


def test_a_cell_builds_one_generator_per_block_and_per_reroute(monkeypatch):
    """150 trials build 3 block generators, then one generator for each
    trial that draws its complement, seeded with that trial's seed."""
    seeds, drawn = [], []
    default_rng = np.random.default_rng

    def counted_rng(seed):
        seeds.append(seed)
        return default_rng(seed)

    def complement(*args):
        drawn.append(args)
        return sample_band_complement(*args)

    monkeypatch.setattr(np.random, "default_rng", counted_rng)
    monkeypatch.setattr(experiments, "sample_band_complement", complement)
    for params, strategy in REROUTING_CELLS:
        seeds.clear()
        drawn.clear()
        records = run_trials(params, strategy, trials=150, base_seed=13)
        blocks = [block_seed(13, b) for b in range(3)]
        assert [seed for seed in seeds if seed in blocks] == blocks
        own = [seed for seed in seeds if seed not in blocks]
        assert len(seeds) == 3 + len(drawn)
        assert len(own) == len(set(own)) == len(drawn)
        assert set(own) <= {trial_seed(13, rec.trial_index) for rec in records}
        assert bool(drawn) == (strategy != "max-stepsize")
    # No block stream is the complement stream of one of the first trials.
    trial_seeds = {experiments.trial_seed(13, i) for i in range(100 * 64)}
    assert trial_seeds.isdisjoint(block_seed(13, b) for b in range(100))


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
    # A satellite count must be whole, swept or fixed; 400.0 is.
    with pytest.raises(InvalidInputError):
        SweepSpec("n_sat", (400.0, 800.5), fixed, trials=10, base_seed=0)
    with pytest.raises(InvalidInputError):
        SweepSpec("altitude_km", (500.0,), {**fixed, "n_sat": 800.5}, 10, 0)
    assert SweepSpec("n_sat", (400.0,), fixed, trials=10, base_seed=0).cell(
        400.0
    ).n_sat == 400


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


def test_sweep_record_layout_and_estimates(monkeypatch):
    calls = _spy_run_trials(monkeypatch)
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
    # One run_trials call per cell.
    assert [args for args, _ in calls] == [
        (spec.cell(value), strategy, 30, 3, 1)
        for value in spec.values
        for strategy in STRATEGIES
    ]
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


def test_sweep_rejects_empty_or_repeated_strategies():
    spec = SweepSpec(
        variable="distance_km",
        values=(4000.0,),
        fixed={"n_sat": 300, "altitude_km": 550.0, "d_max_km": 3000.0, "epsilon": 0.1},
        trials=1,
        base_seed=0,
    )
    for strategies in ((), ("ideal", "ideal"), ("ideal", "max-stepsize", "ideal")):
        with pytest.raises(InvalidInputError, match="without repeats"):
            sweep(spec, strategies=strategies)


def test_integer_swept_values_are_floats_in_both_mirrors(tmp_path):
    spec = SweepSpec(
        variable="n_sat",
        values=(400, 800),
        fixed={
            "altitude_km": 550.0,
            "d_max_km": 3000.0,
            "epsilon": 0.1,
            "distance_km": 6000.0,
        },
        trials=2,
        base_seed=0,
    )
    records = sweep(spec, strategies=("ideal",))
    assert [type(r.swept_value) for r in records] == [float, float]
    write_records_csv(records, tmp_path / "n.csv")
    write_records_json(records, tmp_path / "n.json")
    with open(tmp_path / "n.csv", newline="") as fh:
        cells = [row["swept_value"] for row in csv.DictReader(fh)]
    entries = json.loads((tmp_path / "n.json").read_text())["records"]
    assert cells == ["400.0", "800.0"]
    assert [e["swept_value"] for e in entries] == [400.0, 800.0]
    assert all(isinstance(e["swept_value"], float) for e in entries)


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


def test_table1_cells_are_run_cell_aggregates(small_table):
    # Every per-epsilon Monte Carlo value is the equal-interval run_cell
    # aggregate, the interval of oneweb's immediate type-I cell included.
    fields = lambda agg: (  # noqa: E731
        agg.n_hat, agg.reliable_angle, agg.type1_interrupted, agg.type2_rate,
        agg.type2_ci, agg.mean_efficiency, agg.measured_count,
    )
    for col in small_table.columns:
        for eps in small_table.epsilons:
            params = CellParams.from_preset(col.preset, epsilon=eps)
            agg = run_cell(params, "equal-interval", 40, 1)
            assert fields(agg) == (
                col.n_hat[eps], col.reliable_angle_rad[eps], col.type1[eps],
                col.type2_probability[eps], col.type2_ci[eps],
                col.efficiency[eps], col.measured_count[eps],
            )
    oneweb = small_table.columns[1]
    assert oneweb.preset == "oneweb"
    assert oneweb.type2_ci[0.01] == wilson_interval(40, 40)


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


def test_table1_json_mirrors_csv(tmp_path, small_table):
    # Every CSV cell is its JSON value(s) in the row's text format.
    write_table1_csv(small_table, tmp_path / "t.csv")
    write_table1_json(small_table, tmp_path / "t.json")
    with open(tmp_path / "t.csv", newline="") as fh:
        header, *rows = list(csv.reader(fh))
    columns = json.loads((tmp_path / "t.json").read_text())["columns"]
    assert list(columns) == header[1:]
    text = {metric: fmt for metric, _, fmt in _TABLE1_ROWS if fmt is not None}
    assert [row[0] for row in rows] == list(text)
    for metric, *cells in rows:
        fmt = text[metric]
        for preset, cell in zip(header[1:], cells):
            value = columns[preset][metric]
            if isinstance(value, dict):
                assert list(value) == [repr(e) for e in small_table.epsilons]
                parts = ["-" if v is None else fmt(v) for v in value.values()]
                assert cell == " / ".join(parts)
            else:
                assert cell == fmt(value)
    json_only = {metric for metric, _, fmt in _TABLE1_ROWS if fmt is None}
    assert json_only == {"type2_ci", "measured_count"}
    for col in columns.values():
        assert list(col) == [metric for metric, _, _ in _TABLE1_ROWS]


def test_table1_respects_requested_epsilons(monkeypatch):
    calls = _spy_run_trials(monkeypatch)
    result = run_table1(epsilons=(0.1,), trials=1, base_seed=0)
    assert result.epsilons == (0.1,)
    # One run_trials call per preset cell.
    assert [args for args, _ in calls] == [
        (CellParams.from_preset(preset, epsilon=0.1), "equal-interval", 1, 0, 1)
        for preset in ("starlink", "oneweb", "kuiper")
    ]
    for col in result.columns:
        assert set(col.n_hat) == {0.1}
