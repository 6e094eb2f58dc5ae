"""Per-layer metrics from the traced run's spans.

Each metric reads the spans that start inside the measured phases (setup
metrics read the whole run).  Times are medians per call; ``*_self_ms``
subtracts the time the span's wrapped children cover.  A layer the
workload does not run reads 0 (no calls), and the report says so.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Optional, Sequence, Tuple

from perfbench import spec
from perfbench.tracing import SpanSet, match_proxied, median_ms

Windows = Sequence[Tuple[float, float]]


def per_layer(
    spans: SpanSet,
    windows: Windows,
    deltas: Dict[str, float],
    extra: Dict[str, float],
) -> Dict[str, float]:
    """Every ``spec.PER_LAYER`` metric; ``extra`` supplies the ones that do
    not come from spans (boot times, generator lag, tracing overhead)."""

    def select(name: str, roles: Optional[Sequence[str]] = None, windowed: bool = True):
        return spans.select(name, roles, windows if windowed else None)

    def med(name: str, roles: Optional[Sequence[str]] = None) -> float:
        return median_ms([span[4] - span[3] for _, span in select(name, roles)])

    def self_med(name: str, roles: Optional[Sequence[str]] = None) -> float:
        return median_ms([spans.self_time(process, span) for process, span in select(name, roles)])

    def count(name: str, roles: Optional[Sequence[str]] = None) -> int:
        return len(select(name, roles))

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    def attr_mean(name: str, attr: str) -> float:
        values = [span[7][attr] for _, span in select(name) if span[7] and attr in span[7]]
        return statistics.fmean(values) if values else 0.0

    metrics: Dict[str, float] = {}
    decode: List[float] = []
    kilobytes: List[float] = []
    for process, span in select("client.evaluate", ("client",)):
        children = spans.children(process, span)
        decode.append(sum(c[4] - c[3] for c in children
                          if c[2] in ("client.json_loads", "client.decode_result")))
        kilobytes += [c[7]["chars"] / 1e3 for c in children
                      if c[2] == "client.json_loads" and c[7]]
    metrics["client.decode_ms"] = median_ms(decode)
    metrics["client.response_kb"] = statistics.median(kilobytes) if kilobytes else 0.0

    front_calls = count("front.evaluate", ("front",))
    metrics["front.evaluate_ms"] = med("front.evaluate", ("front",))
    metrics["front.proxy_self_ms"] = median_ms(match_proxied(spans, windows))
    request_connects = sum(
        1 for process, span in select("front.connect", ("front",))
        if spans.has_ancestor(process, span, "front.evaluate")
    )
    metrics["front.connects_per_request"] = ratio(request_connects, front_calls)
    metrics["front.refresh_ms"] = med("front.refresh", ("front",))

    metrics["handler.post_ms"] = med("handler.post", ("replica",))
    metrics["handler.self_ms"] = self_med("handler.post", ("replica",))
    metrics["codec.encode_result_ms"] = med("codec.encode_result", ("replica",))
    metrics["codec.decode_request_ms"] = med("codec.decode_request", ("replica",))
    metrics["server.enqueue_ms"] = med("server.enqueue", ("replica",))
    metrics["admission.wait_ms"] = med("admission.wait", ("replica",))
    flushes = [span[7]["jobs"] for _, span in select("session.flush", ("replica",)) if span[7]]
    metrics["admission.batch_jobs"] = statistics.fmean(flushes) if flushes else 0.0
    metrics["admission.shed"] = float(sum(
        1 for _, span in select("admission.submit", ("replica",))
        if span[7] and span[7].get("error") == "QueueFullError"
    ))

    metrics["session.flush_ms"] = med("session.flush")
    metrics["memo.hit_ratio"] = ratio(
        deltas.get("memo_hits", 0.0), deltas.get("memo_hits", 0.0) + deltas.get("memo_misses", 0.0)
    )
    metrics["session.engine_passes"] = deltas.get("engine_passes", 0.0)
    metrics["session.coalesced_per_pass"] = ratio(
        deltas.get("coalesced", 0.0), deltas.get("engine_passes", 0.0)
    )

    for backend in spec.BACKENDS:
        metrics[f"backend.{backend}_ms"] = med(f"backend.{backend}")
    metrics["backend.chip_self_ms"] = self_med("backend.chip")
    metrics["eval.cumulative_scores_ms"] = med("eval.cumulative_scores")
    metrics["eval.evaluate_scores_ms"] = med("eval.evaluate_scores")
    lookups = select("eval.score_cache.get")
    metrics["eval.score_cache.hit_ratio"] = ratio(
        sum(1 for _, span in lookups if span[7] and span[7]["hit"]), len(lookups)
    )

    for name in ("build_corelets", "deploy", "program_chip", "run_chip", "program_board",
                 "run_board"):
        metrics[f"mapping.{name}_ms"] = med(f"mapping.{name}")
    metrics["mapping.passes_per_grid.chip"] = ratio(count("mapping.run_chip"),
                                                    count("backend.chip"))
    metrics["mapping.passes_per_grid.board"] = ratio(count("mapping.run_board"),
                                                     count("backend.board"))
    metrics["encoding.encode_ms"] = med("encoding.encode")

    metrics["truenorth.chip_step_self_ms"] = self_med("truenorth.chip_step")
    metrics["truenorth.core_tick_self_ms"] = self_med("truenorth.core_tick")
    metrics["truenorth.crossbar_ms"] = median_ms([
        span[4] - span[3] for process, span in select("truenorth.crossbar")
        if not spans.has_ancestor(process, span, "truenorth.crossbar")
    ])
    metrics["truenorth.router_ms"] = med("truenorth.router")
    ticks = count("truenorth.core_tick")
    metrics["truenorth.core_ticks"] = ratio(ticks, count("backend.chip") + count("backend.board"))
    step_seconds = sum(span[4] - span[3] for _, span in select("truenorth.chip_step"))
    metrics["truenorth.host_us_per_core_tick"] = ratio(step_seconds * 1e6, ticks)
    metrics["board.step_self_ms"] = self_med("board.step")
    metrics["board.link_spikes"] = attr_mean("mapping.run_board", "link_spikes")

    for method in spec.METHODS:
        trained = [
            span[4] - span[3] for _, span in select("setup.train", windowed=False)
            if span[7] and span[7].get("method") == method
        ]
        metrics[f"setup.train_s.{method}"] = statistics.median(trained) if trained else 0.0
    metrics.update(extra)
    return {name: float(metrics.get(name, 0.0)) for name, *_ in spec.PER_LAYER}


def span_table(spans: SpanSet, windows: Windows) -> List[str]:
    """Calls, median and median self time per span name, in the window."""
    names = sorted({(process.split(":")[0], span[2]) for process, span in spans.spans})
    lines = [f"{'process':8} {'span':28} {'calls':>7} {'median_ms':>10} {'self_ms':>9} "
             f"{'total_ms':>10}"]
    for role, name in names:
        chosen = spans.select(name, (role,), windows)
        if not chosen:
            continue
        durations = [span[4] - span[3] for _, span in chosen]
        selfs = [spans.self_time(process, span) for process, span in chosen]
        lines.append(
            f"{role:8} {name:28} {len(chosen):7d} {median_ms(durations):10.3f} "
            f"{median_ms(selfs):9.3f} {sum(durations) * 1e3:10.1f}"
        )
    return lines
