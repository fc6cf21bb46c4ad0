"""The metrics a run prints, by name and unit.

End-to-end metrics come from untraced runs, their times divided by the
run's host speed index; per-layer metrics, raw, from the spans and counters
of a traced run. Counters are reported per round: every
round of a run repeats the same operations on the same inputs.
"""

from __future__ import annotations

from evaluate import median, tail_percentile

FRAME_SPANS = ("bench.frame", "bench.track")


class MissingSamples(RuntimeError):
    """A run gathered too few samples for a metric it must report."""


def _value(value, unit):
    return {"value": value, "unit": unit}


def _p50(samples, name):
    if not samples:
        raise MissingSamples(f"{name}: no samples")
    return median(samples)


def _p90(samples, name):
    value = tail_percentile(samples)
    if value is None:
        raise MissingSamples(f"{name}: {len(samples)} samples leave fewer than 10 beyond p90")
    return value


def end_to_end(stats, setup_s, peak_rss_mb):
    """Times are divided by the run's host speed index (hostspeed.py)."""
    if not stats.frame_ms or not stats.init_ms:
        raise MissingSamples("no timed frames or initialization attempts")
    host = stats.host.index()
    return {
        "setup_s": _value(median(setup_s) / host, "s"),
        "frame_ms_p50": _value(median(stats.frame_ms) / host, "ms"),
        "frame_ms_p90": _value(_p90(stats.frame_ms, "frame_ms_p90") / host, "ms"),
        "init_ms_p50": _value(median(stats.init_ms) / host, "ms"),
        "peak_rss_mb": _value(peak_rss_mb, "MB"),
    }


def per_layer(tracer, stats, rounds):
    spans = tracer.spans
    children = {i: {} for i, s in enumerate(spans) if s[0] in FRAME_SPANS}
    for s in spans:
        if s[3] in children:
            totals = children[s[3]]
            totals[s[0]] = totals.get(s[0], 0.0) + 1e3 * (s[2] - s[1])
    tracked = [c for c in children.values() if "backend.ba" in c]
    self_ms = [
        1e3 * (spans[i][2] - spans[i][1]) - sum(c.values()) for i, c in children.items()
    ]
    render_s = [ms / 1e3 for ms in tracer.per_parent_ms("simulator.render", "bench.setup")]

    def p50(name, samples, unit):
        return name, _value(_p50(samples, name), unit)

    def span_p50(name, span):
        return p50(name, tracer.durations_ms(span), "ms")

    def per_round(name, key):
        return name, _value(stats.counts[key] // rounds, "count")

    update = tracer.durations_ms("frontend.update")
    samples = stats.samples
    return dict([
        p50("simulator.render_s", render_s, "s"),
        p50("frontend.update_ms_p50", update, "ms"),
        ("frontend.update_ms_p90",
         _value(_p90(update, "frontend.update_ms_p90"), "ms")),
        ("frontend.tracks", _value(sum(samples["tracks"]) // rounds, "count")),
        span_p50("frontend.gate_ms_p50", "frontend.gate"),
        span_p50("sfm.pnp_ms_p50", "sfm.pnp"),
        per_round("sfm.pnp_calls", "pnp_calls"),
        per_round("sfm.pnp_failures", "pnp_failures"),
        p50("sfm.triangulate_ms_p50",
            [c.get("sfm.triangulate", 0.0) for c in tracked], "ms"),
        per_round("sfm.triangulate_calls", "triangulate_calls"),
        span_p50("initialization.window_sfm_ms_p50", "initialization.window_sfm"),
        span_p50("initialization.init_state_ms_p50", "initialization.init_state"),
        per_round("initialization.sfm_failures", "sfm_failures"),
        span_p50("scale.solve_ms_p50", "scale.solve"),
        per_round("scale.refused", "scale_refused"),
        span_p50("backend.ba_ms_p50", "backend.ba"),
        per_round("backend.ba_iters", "ba_iters"),
        per_round("backend.ba_stalled", "ba_stalled"),
        p50("backend.ba_obs_p50", samples["ba_obs"], "count"),
        p50("backend.landmarks_p50", samples["landmarks"], "count"),
        span_p50("backend.correct_scale_ms_p50", "backend.correct_scale"),
        span_p50("backend.marginalize_ms_p50", "backend.marginalize"),
        per_round("backend.marginalize_calls", "marginalize_calls"),
        per_round("backend.discard_calls", "discard_calls"),
        span_p50("backend.prune_ms_p50", "backend.prune"),
        p50("bench.self_ms_p50", self_ms, "ms"),
        p50("bench.kernel_ms_p50", stats.host.kernel_ms, "ms"),
        p50("ate_m", samples["ate_m"], "m"),
        p50("rpe_m", samples["rpe_m"], "m"),
        p50("init_scale_err", samples["init_scale_err"], "1"),
    ])
