"""Correctness checks on the outputs of one benchmark run.

Each check is a pure function of parsed outputs and reference values and
returns a ``Check``; none compares against a stored copy of earlier
output.  The statistical checks (PEB ratio, outlier fraction) test whether
the run's pooled sample is consistent with the paper's interval: the
estimate may lie outside it by at most ``STAT_SIGMAS`` standard errors, so
a seed-to-seed sampling wobble does not fail a correct program while a
broken estimator or bound still does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

PEB_ORACLE_RTOL = 1e-6  # finite-difference bound vs the program's bound
LINEARITY_RTOL = 1e-9  # PEB(k R) / PEB(R) - k
CSV_RTOL = 1e-9  # 12 significant digits in the CSV files
COST_RTOL = 1e-6  # program cost at the written estimate vs recomputed cost
SCIPY_COST_SLACK = 1e-7  # relative slack of ref_cost against scipy's minimum
GLOBAL_MIN_COST_SLACK = 1e-12  # absolute, as defined by the program
RATIO_RANGE = (2.5, 3.2)  # non-coop / coop mean PEB at M=10 (criterion 02)
OUTLIER_PEB_FACTOR = 10.0  # an error above 10x the agent's bound is an outlier
OUTLIER_RANGE = (0.05, 0.18)  # random:5 outlier fraction at M=10 (criterion 06)
STAT_SIGMAS = 3.0


@dataclass
class Check:
    name: str
    ok: bool
    detail: str


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def peb_matches_oracle(program: Sequence[float], oracle: Sequence[float], label: str) -> Check:
    worst = max(_rel(p, o) for p, o in zip(program, oracle))
    return Check(
        f"peb_oracle[{label}]",
        len(program) == len(oracle) and worst <= PEB_ORACLE_RTOL,
        f"{len(program)} bounds, worst relative gap {worst:.2e} (<= {PEB_ORACLE_RTOL:g})",
    )


def coop_at_most_noncoop(coop: Sequence[float], noncoop: Sequence[float]) -> Check:
    coop, noncoop = np.asarray(coop), np.asarray(noncoop)
    bad = int(np.sum(coop > noncoop * (1.0 + 1e-12)))
    return Check(
        "coop_peb_le_noncoop",
        len(coop) == len(noncoop) and len(coop) > 0 and bad == 0,
        f"{bad} of {len(coop)} M=10 topologies with cooperative PEB above non-cooperative",
    )


def peb_linear_in_resistance(base_peb: float, scaled_peb: float, factor: float) -> Check:
    gap = _rel(scaled_peb / base_peb, factor)
    return Check(
        "peb_linear_in_resistance",
        gap <= LINEARITY_RTOL,
        f"PEB ratio {scaled_peb / base_peb:.15g} for resistance ratio {factor:.15g} "
        f"(relative gap {gap:.1e} <= {LINEARITY_RTOL:g})",
    )


def ratio_of_means_se(numerator: np.ndarray, denominator: np.ndarray):
    """Ratio of sample means and its delta-method standard error."""
    numerator, denominator = np.asarray(numerator, float), np.asarray(denominator, float)
    ratio = numerator.mean() / denominator.mean()
    spread = numerator - ratio * denominator
    se = spread.std(ddof=1) / (math.sqrt(len(spread)) * denominator.mean())
    return float(ratio), float(se)


def _within(value: float, se: float, bounds) -> bool:
    lo, hi = bounds
    return value + STAT_SIGMAS * se >= lo and value - STAT_SIGMAS * se <= hi


def cooperation_gain(coop: Sequence[float], noncoop: Sequence[float]) -> Check:
    ratio, se = ratio_of_means_se(noncoop, coop)
    return Check(
        "cooperation_gain_m10",
        len(coop) > 1 and _within(ratio, se, RATIO_RANGE),
        f"non-coop/coop mean PEB {ratio:.3f} +- {se:.3f} over {len(coop)} topologies "
        f"(within {RATIO_RANGE} up to {STAT_SIGMAS:g} standard errors)",
    )


def outliers(errors: Sequence[float], pebs: Sequence[float]) -> np.ndarray:
    return np.asarray(errors, float) > OUTLIER_PEB_FACTOR * np.asarray(pebs, float)


def outlier_fraction(flags: Sequence[bool]) -> Check:
    """The outlier share lies in OUTLIER_RANGE, up to STAT_SIGMAS binomial
    standard errors taken at the nearer end of the range."""
    n = len(flags)
    frac = float(np.mean(flags)) if n else math.nan
    lo, hi = OUTLIER_RANGE
    low = lo - STAT_SIGMAS * math.sqrt(lo * (1.0 - lo) / max(n, 1))
    high = hi + STAT_SIGMAS * math.sqrt(hi * (1.0 - hi) / max(n, 1))
    return Check(
        "outlier_fraction",
        n > 0 and low <= frac <= high,
        f"{int(np.sum(flags))} outliers in {n} estimates ({frac:.3f}); accepted "
        f"[{max(low, 0.0):.3f}, {high:.3f}], {OUTLIER_RANGE} widened by "
        f"{STAT_SIGMAS:g} standard errors",
    )


def outlier_fractions_match(pairs) -> Check:
    """Each written outlier_frac equals the share recounted from trials.csv."""
    bad = [(w, r) for w, r in pairs if not abs(w - r) <= CSV_RTOL]
    return Check(
        "written_outlier_frac",
        bool(pairs) and not bad,
        f"{len(pairs)} written fractions, differing (written, recounted): {bad[:5]}",
    )


def means_match(pairs, label: str) -> Check:
    """Each written mean equals the mean of the bounds it summarizes."""
    worst = max(_rel(reported, float(np.mean(values))) for values, reported in pairs)
    return Check(
        f"written_means[{label}]",
        bool(pairs) and worst <= CSV_RTOL,
        f"{len(pairs)} written means, worst relative gap {worst:.1e} (<= {CSV_RTOL:g})",
    )


def row_count(rows: int, expected: int, label: str) -> Check:
    return Check(
        f"row_count[{label}]", rows == expected, f"{rows} rows, expected {expected}"
    )


def repeats_identical(repeats: int, mismatched, label: str) -> Check:
    """Rerunning a round with the same seed rewrote the same bytes."""
    return Check(
        f"deterministic[{label}]",
        repeats > 0 and not mismatched,
        f"{repeats} reruns of first-pass rounds, differing rounds: {sorted(set(mismatched))}",
    )


def errors_consistent(rounds) -> Check:
    """error_m is the distance between the written true and estimated positions.

    The CSV carries 12 significant digits, so positions of about a meter
    are known to ~1e-12 m; the tolerance allows for that.
    """
    worst, rows = 0.0, 0
    for rnd in rounds:
        diff = rnd.pose(rnd.table, "est")[:, :3] - rnd.pose(rnd.table, "true")[:, :3]
        error = rnd.col("error_m")
        gap = np.abs(error - np.linalg.norm(diff, axis=1)) / (1e-10 + 1e-9 * error)
        worst = max(worst, float(gap.max(initial=0.0)))
        rows += len(error)
    return Check(
        "error_m_consistent",
        rows > 0 and worst <= 1.0,
        f"{rows} rows, worst gap {worst:.2g} x (1e-10 m + 1e-9 x error_m)",
    )


def poses_match(written: np.ndarray, regenerated: np.ndarray, label: str) -> Check:
    written, regenerated = np.asarray(written), np.asarray(regenerated)
    if written.shape != regenerated.shape:
        return Check(f"true_pose[{label}]", False, f"{len(written)} poses, expected {len(regenerated)}")
    gap = float(np.max(np.abs(written - regenerated)))
    return Check(f"true_pose[{label}]", gap <= 1e-9, f"largest gap {gap:.1e}")


def cost_matches(written: float, recomputed: float, label: str) -> Check:
    gap = _rel(written, recomputed)
    return Check(
        f"final_cost[{label}]",
        gap <= COST_RTOL,
        f"written {written:.12g} vs recomputed at the written estimate {recomputed:.12g}",
    )


def ref_cost_is_minimum(ref_cost: float, scipy_cost: float, label: str) -> Check:
    return Check(
        f"ref_cost_minimum[{label}]",
        ref_cost <= scipy_cost * (1.0 + SCIPY_COST_SLACK),
        f"program ref_cost {ref_cost:.12g} vs scipy minimum from the truth {scipy_cost:.12g}",
    )


def all_global_min(rounds) -> Check:
    flags = np.concatenate([r.col("global_min") for r in rounds])
    final = np.concatenate([r.col("final_cost") for r in rounds])
    ref = np.concatenate([r.col("ref_cost") for r in rounds])
    flagged = int(np.sum(flags == 1))
    consistent = bool(np.all(final <= ref + GLOBAL_MIN_COST_SLACK))
    return Check(
        "turbols_global_min",
        len(flags) > 0 and flagged == len(flags) and consistent,
        f"global_min=1 in {flagged}/{len(flags)} rows; final_cost <= ref_cost + "
        f"{GLOBAL_MIN_COST_SLACK:g} in all: {consistent}",
    )
