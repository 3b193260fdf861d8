"""Output checks: route payloads, aggregates against the reference, worker count.

Every check returns a list of problems; an empty list means the output passed.
The reference (``reference.json``) holds values recorded from the library by
``record_reference.py``: closed-form rows, which must match exactly or to a
fixed tolerance, and per-cell Monte Carlo statistics, which a run must match
within a tolerance derived from the sampling error at both trial counts. A
different random stream passes these checks; a change in what a trial
measures (say, what counts as an interruption) does not.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from leoroute.constellation import PRESET_PARAMS, sample_bpp
from leoroute.experiments import CellParams, make_endpoints, run_trials

#: Width, in standard errors, of every statistical comparison. A run makes
#: a few dozen comparisons, so a correct program fails one with negligible
#: probability.
Z = 5.0
#: Relative slack on recomputed chords and latencies.
REL_TOL = 1e-9
#: Absolute tolerance on the closed-form efficiency estimates.
EFF_ESTIMATE_TOL = 1e-6
R_EARTH_KM = 6371.0
LIGHT_KM_PER_MS = 300.0
STATUSES = ("ok", "repaired", "type2_interrupted")


def _close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def wilson(k: int, n: int, z: float = Z) -> tuple[float, float]:
    """Wilson score interval of ``k`` successes in ``n`` trials."""
    p = k / n
    z2 = z * z
    centre = (p + z2 / (2 * n)) / (1 + z2 / n)
    half = z * math.sqrt(p * (1 - p) / n + z2 / (4 * n * n)) / (1 + z2 / n)
    return centre - half, centre + half


def rate_agrees(k: int, n: int, k_ref: int, n_ref: int) -> bool:
    """The two rates' Wilson intervals at ``Z`` overlap."""
    lo, hi = wilson(k, n)
    lo_ref, hi_ref = wilson(k_ref, n_ref)
    return lo <= hi_ref and lo_ref <= hi


def mean_agrees(mean: float, n: int, mean_ref: float, sd_ref: float, n_ref: int) -> bool:
    """Means agree within ``Z`` standard errors of their difference."""
    tol = Z * sd_ref * math.sqrt(1.0 / n + 1.0 / n_ref) + REL_TOL * abs(mean_ref)
    return abs(mean - mean_ref) <= tol


@dataclass
class Pool:
    """Trials of one cell pooled over a run's operations."""

    trials: int = 0
    type2: int = 0
    sums: dict = field(default_factory=lambda: defaultdict(float))

    def add(self, trials: int, type2: int, means: dict) -> None:
        done = trials - type2
        self.trials += trials
        self.type2 += type2
        for name, value in means.items():
            if value is not None:
                self.sums[name] += value * done

    def compare(self, ref: dict) -> list[str]:
        """Problems with this pool's rate and means against a reference cell."""
        problems = []
        if not rate_agrees(self.type2, self.trials, ref["type2_count"], ref["trials"]):
            problems.append(
                f"type-II rate {self.type2}/{self.trials} disagrees with reference "
                f"{ref['type2_count']}/{ref['trials']}"
            )
        done = self.trials - self.type2
        done_ref = ref["trials"] - ref["type2_count"]
        for name, total in self.sums.items():
            mean_ref, sd_ref = ref[f"{name}_mean"], ref[f"{name}_sd"]
            if done == 0 or mean_ref is None:
                continue
            if not mean_agrees(total / done, done, mean_ref, sd_ref or 0.0, done_ref):
                problems.append(
                    f"mean {name} {total / done!r} over {done} trials disagrees with "
                    f"reference {mean_ref!r} (sd {sd_ref!r}, {done_ref} trials)"
                )
        return problems


# ---------------------------------------------------------------------------
# table1
# ---------------------------------------------------------------------------


def check_table1(result, trials: int, ref_cells: dict, pools: dict) -> dict:
    """Per-cell problems of one ``run_table1`` result; feeds ``pools``."""
    problems = {key: [] for key in ref_cells}
    seen = set()
    for col in result.columns:
        for eps in result.epsilons:
            key = f"{col.preset}/{eps!r}"
            ref = ref_cells.get(key)
            if ref is None:
                problems.setdefault(key, []).append("cell not in the reference")
                continue
            seen.add(key)
            bad = problems[key]
            closed = {
                "n_hat": col.n_hat[eps],
                "reliable_angle_rad": col.reliable_angle_rad[eps],
                "min_sats": col.min_sats[eps],
                "type1": col.type1[eps],
                "contact_mean_rad": col.contact_mean_rad,
            }
            for name, value in closed.items():
                if value != ref[name]:
                    bad.append(f"{name} {value!r} != reference {ref[name]!r}")
            prob, measured, eff = (
                col.type2_probability[eps],
                col.measured_count[eps],
                col.efficiency[eps],
            )
            if ref["immediate_type1"]:
                if (prob, measured, eff) != (1.0, 0, None):
                    bad.append("immediate type-I cell must report rate 1, no trials")
                continue
            type2 = round(prob * trials)
            if not 0.0 <= prob <= 1.0 or type2 + measured != trials:
                bad.append(f"rate {prob!r} and {measured} measured of {trials} disagree")
                continue
            if (eff is None) != (measured == 0) or (
                eff is not None and not 0.0 < eff <= 1.0 + REL_TOL
            ):
                bad.append(f"efficiency {eff!r} invalid for {measured} measured trials")
                continue
            pools.setdefault(key, Pool()).add(trials, type2, {"efficiency": eff})
    for key in set(ref_cells) - seen:
        problems[key].append("cell missing from the result")
    return problems


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def check_sweep(records, distance: float, trials: int, seed: int, ref_cell: dict,
                strategies, pools: dict) -> dict:
    """Per-strategy problems of one single-distance ``sweep`` result."""
    problems = {s: [] for s in strategies}
    rows = {r.strategy: r for r in records}
    if sorted(rows) != sorted(strategies) or len(records) != len(strategies):
        for s in strategies:
            problems[s].append(f"expected one row per strategy, got {sorted(rows)}")
        return problems
    ideal_ms = ref_cell["ideal_latency_ms"]
    for s, rec in rows.items():
        bad = problems[s]
        if (rec.swept_value, rec.trials, rec.seed) != (distance, trials, seed):
            bad.append("row does not echo its distance, trial count and seed")
        if s == "equal-interval":
            for name in ("eff_contour", "eff_binomial"):
                value, want = getattr(rec, name), ref_cell[name]
                if (value is None) != (want is None) or (
                    value is not None and abs(value - want) > EFF_ESTIMATE_TOL
                ):
                    bad.append(f"{name} {value!r} != reference {want!r}")
        elif rec.eff_contour is not None or rec.eff_binomial is not None:
            bad.append("efficiency estimates belong to equal-interval rows only")
        if s == "ideal":
            if rec.type2_rate != 0.0 or not _close(rec.mean_latency_ms, ideal_ms):
                bad.append(f"ideal latency {rec.mean_latency_ms!r} != {ideal_ms!r}")
            continue
        type2 = round(rec.type2_rate * trials)
        if not 0.0 <= rec.type2_rate <= 1.0 or (
            (rec.mean_latency_ms is None) != (type2 == trials)
        ):
            bad.append(f"type-II rate {rec.type2_rate!r} inconsistent with latency")
            continue
        if rec.mean_latency_ms is not None and rec.mean_latency_ms < ideal_ms * (1 - REL_TOL):
            bad.append(f"mean latency {rec.mean_latency_ms!r} below ideal {ideal_ms!r}")
            continue
        pools.setdefault((distance, s), Pool()).add(
            trials,
            type2,
            {"latency_ms": rec.mean_latency_ms, "efficiency": rec.eff_measured},
        )
    return problems


# ---------------------------------------------------------------------------
# route
# ---------------------------------------------------------------------------


def chord_rounding(chord_km: float, radius_km: float) -> float:
    """Rounding error, in km, of a chord computed from spherical coordinates.

    The library evaluates r * sqrt(2 * (1 - cos(angle))) from polar angles;
    the few ulps lost in the bracket grow to about r**2 * 8 eps / chord in
    the chord, which exceeds ``REL_TOL`` of the chord for hops shorter than a
    few km (a 1.6 km hop reads 1.5e-9 relative off its unit-vector length).
    """
    eps = np.finfo(float).eps
    worst = radius_km * math.sqrt(16.0 * eps)
    return worst if chord_km <= 0.0 else min(worst, radius_km**2 * 8.0 * eps / chord_km)


@dataclass(frozen=True)
class Shell:
    """A route call's shell rebuilt outside the timed region."""

    units: np.ndarray
    radius: float
    src: int
    dst: int


def rebuild_shell(preset: str, seed: int, arc_angle: float = math.pi) -> Shell:
    altitude, n_sat = PRESET_PARAMS[preset]
    radius = R_EARTH_KM + altitude
    base = sample_bpp(n_sat, R_EARTH_KM, altitude, seed)
    src, dst = make_endpoints(radius, arc_angle)
    units = np.vstack([base.unit_vectors, src.unit_vector(), dst.unit_vector()])
    return Shell(units=units, radius=radius, src=n_sat, dst=n_sat + 1)


def check_route(shell: Shell, d_max: float, strategy: str, type1: bool,
                immediate: bool, exit_code: Optional[int], payload: dict) -> list[str]:
    """Problems with one ``leoroute route`` result, recomputed from unit vectors.

    The exit-code contract is the one ``cli.py`` documents and its tests pin:
    0 for a complete route, 2 when the equal-interval plan is type-I, and 3
    when routing was interrupted (type-II).
    """
    problems = []
    status = payload.get("status")
    if status not in STATUSES:
        return [f"unknown status {status!r}"]
    complete = status != "type2_interrupted"
    if strategy == "equal-interval" and type1:
        expected_exit = 2
    else:
        expected_exit = 0 if complete else 3
    if exit_code != expected_exit:
        problems.append(f"exit code {exit_code!r}, expected {expected_exit} for {status}")
    hops = payload.get("hops")
    if immediate and strategy == "equal-interval":
        if complete or hops != []:
            problems.append("immediate type-I plan must report no hops")
        return problems
    if not isinstance(hops, list) or not hops:
        return problems + ["route has no hops"]
    n = len(shell.units)
    if not all(isinstance(h, int) and 0 <= h < n for h in hops):
        return problems + ["hop ids outside the shell"]
    if hops[0] != shell.src:
        problems.append(f"route starts at {hops[0]}, not at src {shell.src}")
    if complete and hops[-1] != shell.dst:
        problems.append(f"complete route ends at {hops[-1]}, not at dst {shell.dst}")
    if len(set(hops)) != len(hops):
        problems.append("a satellite repeats")
    vectors = shell.units[hops]
    chords = shell.radius * np.linalg.norm(np.diff(vectors, axis=0), axis=1)
    limit = min(d_max, 2.0 * math.sqrt(shell.radius**2 - R_EARTH_KM**2))
    longest = float(chords.max()) if len(chords) else 0.0
    if longest > limit * (1 + REL_TOL):
        problems.append(f"hop chord {longest!r} km exceeds the limit {limit!r} km")
    distances = payload.get("hop_distances_km")
    if not isinstance(distances, list) or len(distances) != len(chords):
        problems.append("hop_distances_km does not have one entry per hop")
    elif not all(
        abs(float(a) - b) <= REL_TOL * b + chord_rounding(b, shell.radius)
        for a, b in zip(distances, chords)
    ):
        problems.append("hop_distances_km disagrees with the chords between hops")
    latency = payload.get("latency_ms")
    if complete:
        want = float(chords.sum()) / LIGHT_KM_PER_MS
        if latency is None or not _close(float(latency), want):
            problems.append(f"latency_ms {latency!r} != chord sum / c {want!r}")
    elif latency is not None:
        problems.append("an interrupted route must not report a latency")
    return problems


# ---------------------------------------------------------------------------
# worker count
# ---------------------------------------------------------------------------


def check_worker_count(seed: int) -> list[str]:
    """One small cell gives equal records for one and for two workers."""
    params = CellParams.from_preset("oneweb", epsilon=0.1)
    one = run_trials(params, "equal-interval", 8, seed, threads=1)
    two = run_trials(params, "equal-interval", 8, seed, threads=2)
    return [] if one == two else ["records differ between threads=1 and threads=2"]
