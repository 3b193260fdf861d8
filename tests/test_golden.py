"""Golden digests: sha256 of the Monte Carlo records, a sweep CSV and the
JSON of ``leoroute route`` calls, each recorded once and never re-recorded.

A change to the trial path that claims byte-identical outputs must leave
every digest as it is. The digests hold for the interpreter and numpy of
:data:`RECORDED_WITH` only: another numpy may round a product differently,
and another Python may sum differently, so under either the tests skip.
"""

import hashlib
import platform

import numpy as np
import pytest

from leoroute.cli import main
from leoroute.experiments import STRATEGIES, CellParams, SweepSpec, run_trials

#: Python (major.minor) and numpy under which the digests were recorded.
RECORDED_WITH = {"python": "3.11", "numpy": "2.4.6"}

pytestmark = pytest.mark.skipif(
    RECORDED_WITH
    != {"python": ".".join(platform.python_version_tuple()[:2]), "numpy": np.__version__},
    reason=f"digests were recorded under {RECORDED_WITH}",
)

TRIALS, SEED = 300, 3

#: The 800-satellite shell of the strategy-ordering sweep.
SWEEP_FIXED = {"n_sat": 800, "altitude_km": 500.0, "d_max_km": 3000.0, "epsilon": 0.1}

CELLS = {
    **{
        f"{preset}/{eps!r}": CellParams.from_preset(preset, epsilon=eps)
        for preset in ("starlink", "oneweb", "kuiper")
        for eps in (0.1, 0.01)
    },
    **{
        f"sweep/{km!r}": SweepSpec(
            "distance_km", (km,), dict(SWEEP_FIXED), TRIALS, SEED
        ).cell(km)
        for km in (4000.0, 9750.0, 15750.0)
    },
}

#: sha256 of the ``repr`` of every record of a cell, strategy by strategy in
#: :data:`STRATEGIES` order, one record a line.
RECORD_DIGESTS = {
    "starlink/0.1": (
        "b677dbfa8605a69fb911bcb14b4d2d7b091f5ca2ff727094f4e9deee788d4b16"
    ),
    "starlink/0.01": (
        "6cae8e673332c1219f87e6483b89d3f8b6c7ebc52702bb66ceb743d42fd82826"
    ),
    "oneweb/0.1": (
        "2ff3b1cd68a7a39adde53e6b3bd3e4ca7350279c6b41d8d06acab17bf424d7a0"
    ),
    "oneweb/0.01": (
        "ac692ead52f0e6e9c1a0ead868a059490af09393091dffb5f068d12d278fa60d"
    ),
    "kuiper/0.1": (
        "aebc2de47a6a09fa00a6ca437644600dd5188481b2e6ebb6464db368da22235d"
    ),
    "kuiper/0.01": (
        "ded7f0abedf1639c9895db227f680437ac6028ffdcc0619ec189693d5cf53e09"
    ),
    "sweep/4000.0": (
        "d49f6107c486f71e115ba84a4898d46a12f1f5089a9f11d70315c26565e6cb7a"
    ),
    "sweep/9750.0": (
        "813d72df4b54ec1287158d02c550c7af85f63ce8998b5f78c6081278d0d212f5"
    ),
    "sweep/15750.0": (
        "ccdcfb6b70464030e0f039205256dadc3679906e8dacdb3994b63f98a748dd00"
    ),
}

SWEEP_CSV_DIGEST = "0ddaaab3aea41d995f692c05bf0d713c9e89ba643c88796d9fb9915fd20d4174"

#: (preset, strategy, epsilon, seed) of each route call.
ROUTE_CALLS = (
    ("starlink", "equal-interval", 0.1, 11),
    ("starlink", "min-deflection", 0.01, 12),
    ("oneweb", "equal-interval", 0.1, 13),
    ("oneweb", "max-stepsize", 0.01, 14),
    ("kuiper", "max-stepsize", 0.1, 15),
    ("kuiper", "min-deflection", 0.01, 16),
)

ROUTE_JSON_DIGEST = "702876f51ec9bb6187f1756bf940434c776f6061cdf7c9d56d2d02a5dec4cad2"

#: (preset, strategy, epsilon) of every call of the benchmark's route
#: workload, oneweb equal-interval at epsilon 0.01 (type-I before any hop
#: count is feasible) among them; each is called at both seeds.
ROUTE_COMBOS = tuple(
    (preset, strategy, eps)
    for eps in (0.1, 0.01)
    for preset in ("starlink", "kuiper", "oneweb")
    for strategy in ("equal-interval", "min-deflection", "max-stepsize")
)
ROUTE_COMBO_SEEDS = (21, 22)

ROUTE_COMBOS_DIGEST = (
    "637b84d1621cc2ee354c11a1fea0425f207341ecedaed0815cb21c2675389014"
)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def record_text(params: CellParams) -> str:
    return "".join(
        f"{record!r}\n"
        for strategy in STRATEGIES
        for record in run_trials(params, strategy, TRIALS, SEED)
    )


@pytest.mark.parametrize("cell", sorted(RECORD_DIGESTS))
def test_trial_records_match_their_digest(cell):
    assert sha256(record_text(CELLS[cell])) == RECORD_DIGESTS[cell]


def test_sweep_csv_matches_its_digest(tmp_path):
    base = tmp_path / "sweep"
    code = main(
        [
            "sweep", "--var", "distance", "--from", "4000", "--to", "14000",
            "--step", "5000", "--n-sat", "800", "--altitude", "500",
            "--epsilon", "0.1", "--trials", str(TRIALS), "--seed", str(SEED),
            "--out", str(base), "--format", "csv",
        ]
    )
    assert code == 0
    text = (tmp_path / "sweep.csv").read_text()
    assert sha256(text) == SWEEP_CSV_DIGEST


def route_text(out, preset: str, strategy: str, eps: float, seed: int, *extra):
    """Exit code and JSON file of one ``leoroute route`` call."""
    code = main(
        [
            "route", "--preset", preset, "--strategy", strategy,
            "--epsilon", repr(eps), *extra, "--seed", str(seed), "--out", str(out),
        ]
    )
    return f"{code}\n{out.read_text()}"


def test_route_json_matches_its_digest(tmp_path):
    out = tmp_path / "route.json"
    texts = [route_text(out, *call) for call in ROUTE_CALLS]
    assert sha256("".join(texts)) == ROUTE_JSON_DIGEST


def test_route_json_of_every_route_workload_combo_matches_its_digest(tmp_path):
    out = tmp_path / "route.json"
    extra = ("--d-max", "3000", "--dome-angle", "pi")
    texts = [
        route_text(out, *combo, seed, *extra)
        for combo in ROUTE_COMBOS
        for seed in ROUTE_COMBO_SEEDS
    ]
    assert sha256("".join(texts)) == ROUTE_COMBOS_DIGEST
