"""Tests of the benchmark's own code: checkers, tracing arithmetic, contract.

    python3 -m pytest benchmarks -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

from checkout import BENCH_DIR, use_checkout_src

use_checkout_src()

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402
from leoroute import cli  # noqa: E402
from leoroute.experiments import run_table1  # noqa: E402

REFERENCE = json.loads((BENCH_DIR / "reference.json").read_text())
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


def route_case(tmp_path, preset, strategy, epsilon, seed):
    op = wl.Op(0, seed, preset, strategy, epsilon)
    out = tmp_path / "route.json"
    code = cli.main(wl.route_argv(op, out))
    cell = REFERENCE["table1"][f"{preset}/{epsilon!r}"]
    shell = checks.rebuild_shell(preset, seed)

    def check(payload, exit_code=code):
        return checks.check_route(
            shell, wl.ROUTE_D_MAX_KM, strategy, cell["type1"],
            cell["immediate_type1"], exit_code, payload)

    return shell, json.loads(out.read_text()), code, check


def with_hops(shell, payload, hops):
    """The payload rerouted over ``hops`` with self-consistent distances."""
    chords = shell.radius * np.linalg.norm(np.diff(shell.units[hops], axis=0), axis=1)
    return dict(
        payload,
        hops=list(hops),
        hop_distances_km=[float(c) for c in chords],
        latency_ms=float(chords.sum()) / checks.LIGHT_KM_PER_MS,
    )


@pytest.fixture(scope="module")
def kuiper_route(tmp_path_factory):
    return route_case(tmp_path_factory.mktemp("r"), "kuiper", "min-deflection", 0.1, 11)


def test_route_checker_accepts_a_real_route(kuiper_route):
    _, payload, code, check = kuiper_route
    assert code == 0 and payload["status"] == "ok"
    assert check(payload) == []


def test_route_checker_rejects_a_dropped_hop(kuiper_route):
    _, payload, _, check = kuiper_route
    dropped = dict(payload, hops=payload["hops"][:2] + payload["hops"][3:])
    assert any("hop_distances_km" in p for p in check(dropped))


def test_route_checker_rejects_an_overlong_chord(kuiper_route):
    shell, payload, _, check = kuiper_route
    hops = payload["hops"]
    far = int(np.argmin(shell.units @ shell.units[hops[1]]))
    bad = with_hops(shell, payload, hops[:2] + [far] + hops[3:])
    assert any("exceeds the limit" in p for p in check(bad))


def test_route_checker_rejects_a_duplicated_satellite(kuiper_route):
    shell, payload, _, check = kuiper_route
    hops = payload["hops"]
    bad = with_hops(shell, payload, hops[:3] + [hops[1]] + hops[3:])
    assert any("repeats" in p for p in check(bad))


def test_route_checker_rejects_a_wrong_exit_code(kuiper_route):
    _, payload, _, check = kuiper_route
    assert any("exit code" in p for p in check(payload, exit_code=3))


def test_route_checker_follows_the_type1_exit_contract(tmp_path):
    _, payload, code, check = route_case(tmp_path, "oneweb", "equal-interval", 0.01, 3)
    assert code == 2 and payload["hops"] == []
    assert check(payload) == []
    assert any("exit code" in p for p in check(payload, exit_code=3))


@pytest.fixture(scope="module")
def small_table():
    return run_table1(epsilons=wl.TABLE1_EPSILONS, trials=2, base_seed=99)


def test_table1_check_rejects_a_perturbed_closed_form_row(small_table):
    assert not any(checks.check_table1(small_table, 2, REFERENCE["table1"], {}).values())
    col = small_table.columns[0]
    moved = dataclasses.replace(col, n_hat={e: n + 1 for e, n in col.n_hat.items()})
    bad = dataclasses.replace(small_table, columns=(moved,) + small_table.columns[1:])
    problems = checks.check_table1(bad, 2, REFERENCE["table1"], {})
    assert any("n_hat" in p for p in problems[f"{col.preset}/0.1"])


@pytest.mark.parametrize("cell", ["oneweb/0.1", "kuiper/0.01"])
def test_reference_check_rejects_a_perturbed_aggregate(cell):
    ref = REFERENCE["table1"][cell]
    n, k = 2000, round(2000 * ref["type2_count"] / ref["trials"])
    exact = checks.Pool()
    exact.add(n, k, {"efficiency": ref["efficiency_mean"]})
    assert exact.compare(ref) == []

    rate = checks.Pool()
    rate.add(n, min(n, k + 200), {"efficiency": ref["efficiency_mean"]})
    assert any("type-II rate" in p for p in rate.compare(ref))

    mean = checks.Pool()
    mean.add(n, k, {"efficiency": ref["efficiency_mean"] - 10 * ref["efficiency_sd"]})
    assert any("mean efficiency" in p for p in mean.compare(ref))


def test_rate_check_tolerates_a_rare_event_against_a_zero_reference():
    assert checks.rate_agrees(1, 400, 0, 4000)
    assert not checks.rate_agrees(40, 400, 0, 4000)


def test_self_time_on_a_synthetic_span_tree():
    S = tracing.Span
    spans = [
        S("root", 0.0, 10.0, -1, 0),
        S("a", 1.0, 4.0, 0, 0),
        S("b", 3.0, 6.0, 0, 0),  # overlaps a: the union counts once
        S("a.child", 2.0, 3.0, 1, 0),
        S("c", 9.0, 12.0, 0, 0),  # runs past its parent: clipped
        S("other", 20.0, 21.0, -1, 1),
    ]
    assert tracing.self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0, 3.0, 1.0])


def test_tracing_restores_bindings_and_counts_repeat():
    from leoroute import experiments, geometry

    before = (experiments.sample_bpp, geometry.SpherePoint.__dict__["from_unit_vector"])
    counts = []
    for _ in range(2):
        tracer = tracing.Tracer()
        with tracing.installed(tracer) as absent:
            run_table1(epsilons=(0.1,), trials=2, base_seed=5)
        assert absent == []
        metrics = tracing.layer_metrics(tracer)
        counts.append({k: v for k, (v, u) in metrics.items() if u == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["constellation.sample_bpp.points"] == 2 * (11927 + 650 + 3236)
    assert counts[0]["geometry.from_unit_vector.calls"] > 0
    after = (experiments.sample_bpp, geometry.SpherePoint.__dict__["from_unit_vector"])
    assert before == after


def test_benchmark_json_lists_what_the_run_prints():
    layer = set(tracing.layer_metrics(tracing.Tracer())) | {"trace.overhead_ratio"}
    assert {m["name"] for m in SPEC["per_layer"]} == layer
    assert {w["name"] for w in SPEC["workloads"]} == set(wl.WORKLOADS)
    assert SPEC["workloads"] == [{"name": n, "why": wl.WHY[n]} for n in wl.WORKLOADS]


def test_run_refuses_a_checkout_without_the_library(tmp_path):
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "route", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


@pytest.mark.parametrize("seconds", ["0", "-3"])
def test_run_rejects_seconds_below_one(seconds, capsys):
    with pytest.raises(SystemExit) as exited:
        run.main(["--workload", "route", "--seed", "1", "--seconds", seconds])
    assert exited.value.code == 2
    assert "at least 1" in capsys.readouterr().err


def test_sweep_pairs_span_the_range_without_repeats():
    ops = wl.Sweep().ops(7)
    distances = [next(ops).distances_km[0] for _ in range(len(wl.SWEEP_DISTANCES))]
    pairs = list(zip(distances[::2], distances[1::2]))
    assert sorted(distances) == list(wl.SWEEP_DISTANCES)
    assert all(hi - lo == 6000.0 for lo, hi in pairs)
    first = [d for pair in pairs[:4] for d in pair]
    assert min(first) < 5000.0 and max(first) > 14500.0
