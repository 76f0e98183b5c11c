"""Metric definitions, correctness checks and scoring of iterations.

``END_TO_END`` and ``PER_LAYER`` are the metric names the benchmark
prints in its final JSON line (``--trace 0`` and ``--trace 1``); they
must match ``BENCHMARK.json`` one for one.
"""

from __future__ import annotations

import math
import resource
import statistics
from collections import Counter
from typing import Dict, List, Sequence, Tuple

from repro.analysis.costs import rac_cost

from bench_trace import LAYERS, Tracer

#: (name, unit) of every end-to-end metric, in report order.
END_TO_END: "Tuple[Tuple[str, str], ...]" = (
    ("setup_s", "s"),
    ("sim_node_s_per_s", "node-s/s"),
    ("cpu_ms_per_msg", "ms"),
    ("latency_p50_s", "s"),
    ("latency_p90_s", "s"),
    ("peak_rss_mb", "MB"),
)
#: Share of the parent's median by which each end-to-end metric may
#: worsen before a change counts as a regression.
BOUNDS: "Dict[str, float]" = {
    "setup_s": 0.25,
    "sim_node_s_per_s": 0.25,
    "cpu_ms_per_msg": 0.25,
    "latency_p50_s": 0.25,
    "latency_p90_s": 0.25,
    "peak_rss_mb": 0.2,
}
HIGHER_IS_BETTER = {"sim_node_s_per_s", "transport.useful_ratio", "shard.loop_share"}

#: (name, unit) of every per-layer metric, in report order. Layers that
#: do not run on a workload report 0.
PER_LAYER: "Tuple[Tuple[str, str], ...]" = (
    ("engine.events", "count"),
    ("engine.events_cancelled_share", "ratio"),
    ("engine.peak_pending", "count"),
    ("engine.self_s", "s"),
    ("network.packets", "count"),
    ("network.bytes", "bytes"),
    ("network.drops_loss", "count"),
    ("network.drops_other", "count"),
    ("network.hops_per_packet", "count"),
    ("network.self_s", "s"),
    ("transport.segments", "count"),
    ("transport.acks_per_segment", "ratio"),
    ("transport.retransmits", "count"),
    ("transport.useful_ratio", "ratio"),
    ("transport.failures", "count"),
    ("transport.self_s", "s"),
    ("protocol.broadcasts", "count"),
    ("protocol.peel_attempts_per_success", "ratio"),
    ("protocol.accusations", "count"),
    ("protocol.send_retransmits", "count"),
    ("protocol.copies_per_msg", "count"),
    ("protocol.copies_per_msg_model", "count"),
    ("protocol.copies_ratio", "ratio"),
    ("protocol.self_s", "s"),
    ("crypto.seals", "count"),
    ("crypto.unseals", "count"),
    ("crypto.shuffle_s", "s"),
    ("crypto.self_s", "s"),
    ("shard.build_s", "s"),
    ("shard.epoch_loop_s", "s"),
    ("shard.snapshot_save_s", "s"),
    ("shard.snapshot_load_s", "s"),
    ("shard.snapshot_bytes", "bytes"),
    ("shard.barrier_io_s", "s"),
    ("shard.fingerprint_s", "s"),
    ("shard.loop_share", "ratio"),
    ("shard.self_s", "s"),
    ("live.frames_per_s_per_node", "1/s"),
    ("live.bytes_per_s_per_node", "bytes/s"),
    ("live.encode_s", "s"),
    ("live.decode_s", "s"),
    ("live.loop_lag_p99_s", "s"),
    ("live.generator_lateness_p99_s", "s"),
    ("live.backlog_drops", "count"),
    ("live.reconnects", "count"),
    ("live.self_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.idle_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)

UNITS = dict(END_TO_END + PER_LAYER)

#: Broadcast kinds the protocol counts; one origination slot each.
BROADCAST_COUNTERS = ("data_broadcasts", "noise_broadcasts", "relay_broadcasts", "channel_broadcasts")
#: The kinds that carry an anonymous message (cover traffic excluded).
MESSAGE_BROADCASTS = ("data_broadcasts", "relay_broadcasts", "channel_broadcasts")


def percentile(values: "Sequence[float]", q: float) -> float:
    """Nearest-rank percentile ``q`` (0-100) of ``values``; 0 if empty
    (a run with no deliveries fails its correctness check anyway)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest reaped child."""
    me = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (me + kids) / 1024.0


# ---------------------------------------------------------------------------
# correctness
# ---------------------------------------------------------------------------
class Verdict:
    """Accounting of one iteration's anonymous messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.refused = 0
        self.missing = 0
        self.unexpected = 0
        self.evicted = 0
        self.problems: "List[str]" = []

    @property
    def failed(self) -> int:
        """Attempted messages that were refused or not delivered intact
        to their destination by the drain deadline."""
        return min(self.attempted, self.refused + self.missing)

    @property
    def correct(self) -> bool:
        return not self.problems


def judge(iteration) -> Verdict:
    """Delivered payload multiset per destination == accepted sends, and
    no eviction. A delivery to the wrong node, a changed payload or a
    duplicate shows as a missing and/or unexpected delivery."""
    verdict = Verdict()
    verdict.attempted = len(iteration.sends)
    verdict.refused = sum(1 for s in iteration.sends if not s.accepted)
    expected = Counter((s.dst, s.payload) for s in iteration.sends if s.accepted)
    delivered = Counter((dst, payload) for dst, payload, _ in iteration.deliveries)
    verdict.missing = sum((expected - delivered).values())
    verdict.unexpected = sum((delivered - expected).values())
    verdict.evicted = len(iteration.evicted)
    if verdict.missing:
        verdict.problems.append(f"{verdict.missing} accepted sends not delivered to their destination")
    if verdict.unexpected:
        verdict.problems.append(f"{verdict.unexpected} deliveries match no accepted send (duplicate, misrouted or altered)")
    if verdict.evicted:
        verdict.problems.append(f"{verdict.evicted} honest nodes evicted")
    errors = iteration.extra.get("errors")
    if errors:
        verdict.problems.append(f"{len(errors)} node callback errors, first: {errors[0]!r}")
    return verdict


def latencies(iteration) -> "List[float]":
    """Delivery time minus the time the send was due, per delivery."""
    due = {(s.dst, s.payload): s.due for s in iteration.sends}
    return [at - due[(dst, p)] for dst, p, at in iteration.deliveries if (dst, p) in due]


# ---------------------------------------------------------------------------
# end-to-end scoring
# ---------------------------------------------------------------------------
def end_to_end(
    iterations: "Sequence", setups: "Sequence[float]", samples: "Sequence[float]", rss_mb: float
) -> "Dict[str, float]":
    """Medians over iterations; latency over the pooled ``samples``."""
    delivered = [max(1, len(it.deliveries)) for it in iterations]
    return {
        "setup_s": statistics.median(setups),
        "sim_node_s_per_s": statistics.median(it.node_seconds / it.node_wall_s for it in iterations),
        "cpu_ms_per_msg": statistics.median(
            1000.0 * it.run_cpu_s / n for it, n in zip(iterations, delivered)
        ),
        "latency_p50_s": percentile(samples, 50),
        "latency_p90_s": percentile(samples, 90),
        "peak_rss_mb": rss_mb,
    }


# ---------------------------------------------------------------------------
# per-layer scoring (traced run)
# ---------------------------------------------------------------------------
def copies_per_message(counters: "Dict[str, float]") -> float:
    """Transport copies per delivered anonymous message.

    Base: every data segment the transport sent (every TCP frame on
    live runs, which have no ARQ transport), split across broadcast
    kinds in proportion to their counts, keeping only the kinds that
    carry an anonymous message (origin, relay and channel broadcasts);
    noise broadcasts are cover traffic and are left out.
    """
    broadcasts = sum(counters.get(k, 0) for k in BROADCAST_COUNTERS)
    carrying = sum(counters.get(k, 0) for k in MESSAGE_BROADCASTS)
    delivered = counters.get("delivered", 0)
    if not broadcasts or not delivered:
        return 0.0
    copies = counters.get("transport_segments_sent") or counters.get("live_frames_sent", 0)
    per_broadcast = copies / broadcasts
    return per_broadcast * carrying / delivered


def model_copies(nodes: int, config, groups: "Sequence[int]") -> float:
    """``repro.analysis.costs.rac_cost`` at the run's mean group size."""
    mean_group = statistics.mean(groups) if groups else nodes
    return rac_cost(nodes, mean_group, config.num_relays, config.num_rings).total_copies()


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(
    workload, iteration, tracer: Tracer, untraced_wall_s: float
) -> "Dict[str, float]":
    c = iteration.counters
    self_s = tracer.self_seconds()
    inc = tracer.inclusive_seconds
    calls = tracer.calls
    counts = tracer.counts

    processed = c.get("sim_events_processed", 0)
    cancelled = c.get("sim_events_cancelled", 0)
    packets = c.get("net_packets_delivered", 0) + c.get("net_packets_dropped", 0)
    drops_loss = c.get("net_dropped_loss", 0)
    segments = c.get("transport_segments_sent", 0)
    retransmits = c.get("transport_retransmits", 0)
    failures = c.get("transport_delivery_failures", 0)
    copies = copies_per_message(c)
    model = model_copies(workload.nodes, iteration.extra["config"], iteration.extra["groups"])
    peels = counts.get("peel", 0)

    lifetime = iteration.extra.get("lifetime_s", 0.0)
    per_node_s = workload.nodes * lifetime
    lateness = [s.issued - s.due for s in iteration.sends] if not workload.simulated else []
    lags = iteration.extra.get("loop_lag", [])
    epoch_loop = inc("shard.epoch_step")

    out = {
        "engine.events": processed,
        "engine.events_cancelled_share": _ratio(cancelled, processed + cancelled),
        "engine.peak_pending": tracer.peak_pending,
        "network.packets": packets,
        "network.bytes": c.get("net_bytes_delivered", 0) + c.get("net_bytes_dropped", 0),
        "network.drops_loss": drops_loss,
        "network.drops_other": c.get("net_packets_dropped", 0) - drops_loss,
        "network.hops_per_packet": _ratio(calls("network.callback"), calls("network.send")),
        "transport.segments": segments,
        "transport.acks_per_segment": _ratio(c.get("transport_acks_sent", 0), segments),
        "transport.retransmits": retransmits,
        "transport.useful_ratio": _ratio(segments - failures, segments + retransmits),
        "transport.failures": failures,
        "protocol.broadcasts": sum(c.get(k, 0) for k in BROADCAST_COUNTERS),
        "protocol.peel_attempts_per_success": _ratio(peels, counts.get("peel_success", 0)),
        "protocol.accusations": sum(v for k, v in c.items() if k.startswith("accusation_")),
        "protocol.send_retransmits": c.get("send_retransmitted", 0),
        "protocol.copies_per_msg": copies,
        "protocol.copies_per_msg_model": model,
        "protocol.copies_ratio": _ratio(copies, model),
        "crypto.seals": counts.get("seal", 0),
        "crypto.unseals": counts.get("unseal", 0),
        "crypto.shuffle_s": inc("crypto.shuffle"),
        "shard.build_s": inc("shard.build"),
        "shard.epoch_loop_s": epoch_loop,
        "shard.snapshot_save_s": inc("shard.snapshot_save"),
        "shard.snapshot_load_s": inc("shard.snapshot_load"),
        "shard.snapshot_bytes": counts.get("snapshot_bytes", 0),
        "shard.barrier_io_s": inc("shard.barrier_io"),
        "shard.fingerprint_s": inc("shard.fingerprint"),
        "shard.loop_share": _ratio(epoch_loop, tracer.wall_s),
        "live.frames_per_s_per_node": _ratio(c.get("live_frames_sent", 0), per_node_s),
        "live.bytes_per_s_per_node": _ratio(c.get("live_bytes_sent", 0), per_node_s),
        "live.encode_s": inc("live.encode"),
        "live.decode_s": inc("live.decode"),
        "live.loop_lag_p99_s": percentile(lags, 99) if lags else 0.0,
        "live.generator_lateness_p99_s": percentile(lateness, 99) if lateness else 0.0,
        "live.backlog_drops": c.get("live_frames_dropped_backlog", 0),
        "live.reconnects": c.get("live_reconnect_failures", 0),
        "trace.unattributed_s": self_s["unattributed"],
        # Traced wall minus process CPU: on live runs the event loop's
        # waiting, which is most of unattributed_s; near 0 on sim runs.
        "trace.idle_s": max(0.0, tracer.wall_s - iteration.run_cpu_s),
        "trace.wall_s": tracer.wall_s,
        "trace.untraced_wall_s": untraced_wall_s,
        "trace.overhead_ratio": _ratio(tracer.wall_s, untraced_wall_s),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_s[layer]
    return {name: float(out[name]) for name, _ in PER_LAYER}


def accounting_gap(tracer: Tracer) -> float:
    """Traced wall time minus the per-layer self times and ``unattributed``."""
    return tracer.wall_s - sum(tracer.self_seconds().values())
