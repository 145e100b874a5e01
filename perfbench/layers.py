"""Per-layer metrics derived from the spans and counts of traced rounds.

Span names are ``<module>.<function>`` or ``<module>.<Class>.<method>``.
The observers below add work counts at the same boundaries; they run after
the span has closed, so their own cost is not charged to the traced call.
Layers a workload never calls report zero.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List

import numpy as np

EMIT = ("harness.emit_outputs", "harness.emit_peb_curve", "harness.emit_gains")
DERIVATIVES = ("channel.channel_derivative_columns", "channel.channel_derivative_columns_rx")
LM = "estimators.levenberg_marquardt"
RESIDUAL = "estimators.LsProblem.residual"


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _peb_bytes(counts, args, kwargs, result):
    info = _arg(args, kwargs, 0, "info")
    counts["crlb.peb.fim_bytes"] += 8 * (6 * info.n_agents) ** 2


def _gain_links(counts, args, kwargs, result):
    counts["channel.channel_gain_batch.links"] += len(result[1])


def _derivative_links(counts, args, kwargs, result):
    counts["channel.channel_derivative_columns.links"] += len(result)


def _synth_links(counts, args, kwargs, result):
    counts["scenario.synthesize_measurements.links"] += len(result.measurements)


def _lm_iterations(counts, args, kwargs, result):
    counts["estimators.lm_iterations"] += result.iterations


def _emit_bytes(counts, args, kwargs, result):
    # timings.csv holds wall times, whose printed length varies from run to run
    counts["harness.emit.bytes"] += sum(
        path.stat().st_size for path in result if path.name != "timings.csv"
    )


OBSERVERS = {
    "crlb.peb": _peb_bytes,
    "channel.channel_gain_batch": _gain_links,
    DERIVATIVES[0]: _derivative_links,
    DERIVATIVES[1]: _derivative_links,
    "scenario.synthesize_measurements": _synth_links,
    LM: _lm_iterations,
    **{name: _emit_bytes for name in EMIT},
}

CALLS = (
    "crlb.assemble_fim",
    "crlb.peb",
    "scenario.sample_topology",
    "scenario.synthesize_measurements",
    "channel.channel_matrix",
    "channel.channel_gain_batch",
    "geometry.euler_to_rotation_batch",
    "geometry.euler_rotation_derivatives",
    "pairml.pair_ml_estimate",
    "pairml.estimate_link",
    "estimators.LsProblem.residual_and_jacobian",
    RESIDUAL,
    LM,
    "harness.run_trial_estimator",
)
SELF_TIMES = (
    "crlb.assemble_fim",
    "crlb.peb",
    "scenario.sample_topology",
    "scenario.synthesize_measurements",
    "channel.channel_gain_batch",
    "geometry.euler_rotation_derivatives",
    "pairml.pair_ml_estimate",
    "estimators.LsProblem.from_measurements",
    "estimators.pairml_initialization",
    "estimators.LsProblem.residual_and_jacobian",
    RESIDUAL,
    LM,
)
COUNTS = (
    "crlb.peb.fim_bytes",
    "scenario.synthesize_measurements.links",
    "channel.channel_gain_batch.links",
    "channel.channel_derivative_columns.links",
    "harness.emit.bytes",
)
COUNT_UNITS = {"crlb.peb.fim_bytes": "bytes", "harness.emit.bytes": "bytes"}


def round_figures(trace) -> Dict[str, object]:
    """Reduce one round's spans to the sums the metrics need."""
    harness_self = sum(
        s for name, s in trace.self_s.items() if name.startswith("harness.") and name not in EMIT
    )
    return {
        "calls": Counter(trace.calls),
        "self_s": dict(trace.self_s),
        "harness_self_s": harness_self,
        "emit_self_s": sum(trace.self_s.get(name, 0.0) for name in EMIT),
        "trial_ms": [1e3 * d for d in trace.total_s.get("harness.run_trial_estimator", [])],
        "lm_residuals": trace.child_calls[(LM, RESIDUAL)],
        "counts": Counter(trace.counts),
    }


def layer_metrics(figures: List[Dict[str, object]], results) -> Dict[str, Dict[str, object]]:
    """Per-layer metrics summed over the given traced rounds."""
    calls, counts, self_s = Counter(), Counter(), Counter()
    trial_ms: List[float] = []
    harness_self = emit_self = 0.0
    lm_residuals = 0
    for fig in figures:
        calls.update(fig["calls"])
        counts.update(fig["counts"])
        self_s.update(fig["self_s"])
        trial_ms += fig["trial_ms"]
        harness_self += fig["harness_self_s"]
        emit_self += fig["emit_self_s"]
        lm_residuals += fig["lm_residuals"]

    out: Dict[str, Dict[str, object]] = {}
    for name in CALLS:
        out[f"{name}.calls"] = {"value": calls[name], "unit": "calls"}
    for name in SELF_TIMES:
        out[f"{name}.self_s"] = {"value": float(self_s[name]), "unit": "s"}
    out["channel.channel_derivative_columns.self_s"] = {
        "value": float(sum(self_s[name] for name in DERIVATIVES)), "unit": "s"
    }
    for name in COUNTS:
        out[name] = {"value": counts[name], "unit": COUNT_UNITS.get(name, "links")}
    iterations = counts["estimators.lm_iterations"]
    out["estimators.lm_iterations"] = {"value": iterations, "unit": "iterations"}
    out["estimators.lm_evals_per_iteration"] = {
        "value": lm_residuals / iterations if iterations else 0.0, "unit": "evals/iteration"
    }
    for q in (50, 90):
        value = float(np.percentile(trial_ms, q)) if trial_ms else 0.0
        out[f"harness.run_trial_estimator.p{q}_ms"] = {"value": value, "unit": "ms"}
    out["harness.self_s"] = {"value": harness_self, "unit": "s"}
    out["harness.emit.self_s"] = {"value": emit_self, "unit": "s"}
    out["trace.pass_trials"] = {"value": sum(r.trials for r in results), "unit": "trials"}
    return out
