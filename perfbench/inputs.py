"""Seeded input generators for the benchmark workloads.

Everything here is a pure function of the workload seed and uses only the
standard library (``random.Random``), never fragilis, so no change to the
package can change what the benchmark feeds it. The module imports nothing
heavy, so the set-up probe can import it before it starts its clock.
"""

from __future__ import annotations

import json
import math
import random

# --- stress-mc -------------------------------------------------------------

STRESS_TRIALS = 2_000_000
STRESS_DURATION_YEARS = 8.6
STRESS_SHORTFALL = 0.11


def stress_inputs(seed: int) -> dict:
    """The Monte Carlo seed and the two stress shapes run on the stylized dam."""
    rng = random.Random(f"stress-mc/{seed}")
    return {
        "mc_seed": rng.getrandbits(63),
        "n_trials": STRESS_TRIALS,
        "duration_years": STRESS_DURATION_YEARS,
        "shortfall": STRESS_SHORTFALL,
    }


# --- the cli-pipeline appraisal model --------------------------------------


def _model_spec(rng: random.Random) -> dict:
    """One appraisal model as plain data: {rate, capex, om, benefits}.

    Life 10-60 years, rate 2-12%, construction over 1-5 years, O&M on about
    60% of models, a mid-life reinvestment on about half (which makes the net
    stream change sign several times) and a target BCR drawn from 0.6-2.4, so
    roughly a fifth of the models are already broken.
    """
    life = rng.randint(10, 60)
    rate = rng.uniform(0.02, 0.12)
    build = rng.randint(1, 5)
    capex_total = rng.uniform(500.0, 5000.0)
    capex = [[float(t), capex_total / build] for t in range(build)]
    years = [float(t) for t in range(build, build + life)]
    annuity = math.fsum((1.0 + rate) ** -t for t in years)
    om_frac = rng.uniform(0.05, 0.3) if rng.random() < 0.6 else 0.0
    if rng.random() < 0.5:
        capex.append([float(build + life // 2), capex_total * rng.uniform(0.2, 0.6)])
    pv_capex = math.fsum(a * (1.0 + rate) ** -t for t, a in capex)
    target_bcr = rng.uniform(0.6, 2.4)
    # BCR = a*A / (C + f*a*A)  =>  a = target*C / (A * (1 - target*f))
    benefit = target_bcr * pv_capex / (annuity * (1.0 - target_bcr * om_frac))
    return {
        "rate": rate,
        "capex": capex,
        "om": [[t, om_frac * benefit] for t in years] if om_frac else [],
        "benefits": [[t, benefit] for t in years],
    }


def model_document(spec: dict) -> dict:
    """A model spec in the fragilis model-file format."""
    return {
        "discount_rate": spec["rate"],
        "base_year": 2000,
        "capex": [{"t": t, "amount": a} for t, a in spec["capex"]],
        "om": [{"t": t, "amount": a} for t, a in spec["om"]],
        "benefits": [{"t": t, "amount": a} for t, a in spec["benefits"]],
    }


# --- reference-class records CSV -------------------------------------------

N_ROWS = 10_000
BAD_SHARE = 0.02
CSV_HEADER = (
    "id,name,country,region,project_type,decision_year,est_cost,act_cost,"
    "est_months,act_months,est_benefit,act_benefit"
)
_REGIONS = (
    ("Asia", 0.34), ("SouthAmerica", 0.22), ("Africa", 0.18),
    ("NorthAmerica", 0.14), ("Europe", 0.09), ("Oceania", 0.03),
)
_TYPES = ("hydroelectric", "irrigation", "multipurpose", "water_supply", "flood_control")


def _pick(rng: random.Random, weighted) -> str:
    u, acc = rng.random(), 0.0
    for value, w in weighted:
        acc += w
        if u < acc:
            return value
    return weighted[-1][0]


def _good_row(rng: random.Random, i: int) -> list[str]:
    est_cost = round(20.0 + 3000.0 * rng.random() ** 2, 1)
    ratio = math.exp(rng.gauss(0.2, 0.45))
    if rng.random() < 0.05:  # fat upper tail: a few projects overrun several-fold
        ratio *= 1.0 + rng.paretovariate(1.5)
    est_months = float(rng.randint(24, 160))
    slip = math.exp(rng.gauss(0.25, 0.3))
    benefit = ["", ""]
    if rng.random() < 0.4:
        est_b = round(est_cost * rng.uniform(1.1, 2.0), 1)
        benefit = [repr(est_b), repr(round(est_b * rng.uniform(0.6, 1.2), 1))]
    return [
        f"R-{i:06d}", f"Project {i}", f"Country {rng.randint(1, 60)}",
        _pick(rng, _REGIONS), rng.choice(_TYPES), str(rng.randint(1930, 2019)),
        repr(est_cost), repr(round(est_cost * ratio, 1)),
        repr(est_months), repr(float(max(1, round(est_months * slip)))), *benefit,
    ]


def _break_row(rng: random.Random, row: list[str]) -> list[str]:
    """Corrupt one field so that lenient ingest must report a RowError."""
    kind = rng.randrange(5)
    if kind == 0:
        row[6] = "n/a"  # est_cost not a number
    elif kind == 1:
        row[3] = "Atlantis"  # unknown region
    elif kind == 2:
        row[5] = row[5][:2] + "x" + row[5][3:]  # decision_year not an integer
    elif kind == 3:
        row[7] = "-" + row[7]  # negative actual cost
    else:
        row = row[:8]  # truncated row: the last columns are missing
    return row


def records_csv(seed: int, n_rows: int = N_ROWS, bad_share: float = BAD_SHARE) -> tuple[str, list[int]]:
    """CSV text with n_rows data rows, a fixed share of them malformed.

    Returns the text and the 1-based file line numbers (header = line 1) of
    the malformed rows. Ids are unique: duplicate ids abort lenient ingest,
    which would leave nothing to time.
    """
    rng = random.Random(f"records/{seed}/{n_rows}")
    bad = set(rng.sample(range(n_rows), round(n_rows * bad_share)))
    lines = [CSV_HEADER]
    for i in range(n_rows):
        row = _good_row(rng, i)
        if i in bad:
            row = _break_row(rng, row)
        lines.append(",".join(row))
    return "\n".join(lines) + "\n", sorted(i + 2 for i in bad)


# --- cli-pipeline ----------------------------------------------------------

CLI_ROWS = 2_000


def cli_inputs(seed: int) -> dict:
    rng = random.Random(f"cli-pipeline/{seed}")
    return {
        "model": model_document(_model_spec(rng)),
        "stress_seed": rng.getrandbits(63),
        "csv_seed": rng.getrandbits(32),
    }


def canonical_bytes(obj) -> bytes:
    """Stable serialization used for input and output digests."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
