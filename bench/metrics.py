"""Metric names, units, and the per-layer figures of one traced pipeline.

The names and units here are those listed in BENCHMARK.json; smoke.py checks
that the two agree.
"""

from __future__ import annotations


END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pass_fraction": "1",
    "density_l1": "1",
}

LAYERS = ("kernels", "bridge", "quantum", "sde", "entropy")

#: warning classes counted by name; any other class is counted as warn.other
WARNING_CLASSES = ("TruncationWarning", "BoundaryMassWarning", "MassDefectWarning",
                   "RuntimeWarning")

#: failure classes counted by name; any other class is counted as fail.other
FAILURE_CLASSES = ("ValueError", "SupportViolation", "ToleranceExceeded")

PER_LAYER = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "bridge.solve_s": "s",
    "bridge.solve_iters": "count",
    "bridge.iter_ms": "ms",
    "bridge.marginal_residual": "1",
    "bridge.drift_sweep_s": "s",
    "bridge.drift_ms_per_time": "ms",
    "bridge.flow_s": "s",
    "bridge.flow_mass": "1",
    "kernels.heat_kernel_s": "s",
    "kernels.kernel_mb": "MB",
    "quantum.evolve_s": "s",
    "quantum.step_us": "us",
    "quantum.recondition_s": "s",
    "quantum.drifts_s": "s",
    "quantum.hjb_s": "s",
    "quantum.hjb_residual": "1",
    "quantum.energy_defect": "1",
    "sde.sample_s": "s",
    "sde.ns_per_path_step": "ns",
    "sde.drift_lookup_s": "s",
    "sde.drift_lookup_calls": "count",
    "sde.generator_check_s": "s",
    "sde.ensemble_mb": "MB",
    "sde.clamp_fraction": "1",
    "entropy.girsanov_s": "s",
    "entropy.ns_per_path_step": "ns",
    "entropy.mc_se": "1",
    "entropy.girsanov_gap": "1",
    "fail_fraction": "1",
    **{f"fail.{c}": "count" for c in FAILURE_CLASSES},
    "fail.other": "count",
    **{f"warn.{c}": "count" for c in WARNING_CLASSES},
    "warn.other": "count",
    "trace.overhead_frac": "1",
}


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its child spans cover.

    Spans come from one thread and nest, so children of one parent never
    overlap and their durations add up.
    """
    own = [e - s for _, s, e, _ in spans]
    for _, s, e, parent in spans:
        if parent >= 0:
            own[parent] -= e - s
    return own


def totals_by_name(spans: list[list]) -> tuple[dict, dict]:
    """(self seconds, call count) per span name."""
    seconds: dict[str, float] = {}
    counts: dict[str, int] = {}
    for (name, *_), own in zip(spans, self_times(spans)):
        seconds[name] = seconds.get(name, 0.0) + own
        counts[name] = counts.get(name, 0) + 1
    return seconds, counts


def _ratio(num: float, den: float) -> float:
    """num / den, or 0 when the layer did no work (den == 0)."""
    return num / den if den else 0.0


def layer_figures(spans: list, figures: dict) -> dict:
    """Per-layer times and counts of one traced pipeline.

    Times are self times: a span's duration minus its children's, so drift
    lookups are charged to sde.drift_lookup_s and not to the sampler or the
    entropy call that made them. A layer the workload bypasses reads 0.
    """
    sec, cnt = totals_by_name(spans)

    def s(*names):
        return sum(sec.get(n, 0.0) for n in names)

    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, value in sec.items():
        layer = name.split(".", 1)[0]
        if layer in layer_self:
            layer_self[layer] += value

    iters = figures.get("solve_iters", 0)
    path_steps = 2 * figures["n_paths"] * figures["n_steps"]
    solve = s("bridge.solve_schrodinger_system")
    sweep = s("bridge.bridge_drift_fields")
    evolve = s("quantum.evolve")
    sample = s("sde.sample_forward", "sde.sample_backward")
    girsanov = s("entropy.path_entropy_forward", "entropy.path_entropy_backward")
    out = {f"{layer}.self_s": v for layer, v in layer_self.items()}
    out.update({
        "bridge.solve_s": solve,
        "bridge.solve_iters": iters,
        "bridge.iter_ms": 1e3 * _ratio(solve, iters),
        "bridge.marginal_residual": figures.get("marginal_residual", 0.0),
        "bridge.drift_sweep_s": sweep,
        "bridge.drift_ms_per_time": 1e3 * _ratio(sweep, figures.get("drift_times", 0)),
        "bridge.flow_s": s("bridge.wiener_marginal_flow", "bridge.wiener_backward_drift_fields"),
        "bridge.flow_mass": figures.get("flow_mass", 0.0),
        "kernels.heat_kernel_s": s("kernels.heat_kernel"),
        "kernels.kernel_mb": figures.get("kernel_mb", 0.0),
        "quantum.evolve_s": evolve,
        "quantum.step_us": 1e6 * _ratio(
            evolve, cnt.get("quantum.evolve", 0) * figures.get("evolve_steps", 0)),
        "quantum.recondition_s": s("quantum.quantum_bridge"),
        "quantum.drifts_s": s("quantum.drifts"),
        "quantum.hjb_s": s("quantum.hjb_residual"),
        "quantum.hjb_residual": figures.get("hjb_residual", 0.0),
        "quantum.energy_defect": figures.get("energy_defect", 0.0),
        "sde.sample_s": sample,
        "sde.ns_per_path_step": 1e9 * sample / path_steps,
        "sde.drift_lookup_s": s("sde.drift_lookup"),
        "sde.drift_lookup_calls": cnt.get("sde.drift_lookup", 0),
        "sde.generator_check_s": s("sde.generator_check"),
        "sde.ensemble_mb": figures["ensemble_mb"],
        "sde.clamp_fraction": figures["clamp_fraction"],
        "entropy.girsanov_s": girsanov,
        "entropy.ns_per_path_step": 1e9 * girsanov / path_steps,
        "entropy.mc_se": figures["mc_se"],
        "entropy.girsanov_gap": figures["girsanov_gap"],
    })
    return out


def class_counts(names, known, prefix: str) -> dict:
    """Occurrences of each known class name, the rest under <prefix>.other."""
    out = {f"{prefix}.{c}": 0 for c in known}
    out[f"{prefix}.other"] = 0
    for name in names:
        key = f"{prefix}.{name}" if name in known else f"{prefix}.other"
        out[key] += 1
    return out
