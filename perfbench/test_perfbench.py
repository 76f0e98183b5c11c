"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import os
import pickle
import re
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for path in (os.path.join(ROOT, "src"), HERE):
    if path not in sys.path:
        sys.path.insert(0, path)

import bench_metrics as bm  # noqa: E402
import bench_trace as bt  # noqa: E402
import bench_workloads as bw  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# metric names
# ---------------------------------------------------------------------------
def test_benchmark_json_is_generated_from_the_definitions():
    import run

    assert _benchmark_json() == run.benchmark_spec()


def test_metric_names_match_benchmark_json():
    spec = _benchmark_json()
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(bm.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(bm.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(bw.WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in bw.WORKLOADS.values()]


def test_metric_names_and_units_use_the_charset():
    names = [n for n, _ in bm.END_TO_END + bm.PER_LAYER] + list(bw.WORKLOADS)
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for _, unit in bm.END_TO_END + bm.PER_LAYER:
        assert UNIT.match(unit), unit


def test_every_traced_layer_has_a_self_time_metric():
    names = {n for n, _ in bm.PER_LAYER}
    for layer in bt.LAYERS:
        assert f"{layer}.self_s" in names


def test_setup_metric_and_bounds_follow_the_contract():
    spec = _benchmark_json()
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    assert bounds["setup_s"]["unit"] == "s" and bounds["setup_s"]["better"] == "lower"
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert bounds["setup_s"]["bound"] == max(m["bound"] for m in spec["end_to_end"])


# ---------------------------------------------------------------------------
# fail_rate accounting
# ---------------------------------------------------------------------------
def _iteration(sends, deliveries, evicted=()):
    return bw.Iteration(
        input_seed=0, setup_s=0.0, run_wall_s=1.0, run_cpu_s=1.0, node_seconds=1.0,
        node_wall_s=1.0, sends=sends, deliveries=deliveries, evicted=list(evicted), counters={},
    )


def test_undeliverable_message_counts_as_failed():
    """A message to a node that leaves before it can be delivered."""
    from repro.core.config import RacConfig
    from repro.core.system import RacSystem

    config = RacConfig.small()
    system = RacSystem(config, seed=3)
    ids = system.bootstrap(6)
    system.run(2 * config.join_settle_time)
    sends = [
        bw.Send(system.now, ids[0], ids[1], b"kept"),
        bw.Send(system.now, ids[2], ids[3], b"undeliverable"),
    ]
    for send in sends:
        send.accepted = system.send(send.src, send.dst, send.payload)
    system.leave(ids[3])
    system.run(3.0)
    deliveries = [
        (nid, payload, at)
        for nid, node in system.nodes.items()
        for payload, at in zip(node.delivered, node.delivered_at)
    ]
    verdict = bm.judge(_iteration(sends, deliveries, system.evicted))
    assert all(s.accepted for s in sends)
    assert verdict.attempted == 2
    assert verdict.failed == 1
    assert not verdict.correct


def test_refused_misrouted_and_duplicate_deliveries():
    sends = [bw.Send(0.0, 1, 2, b"a", accepted=True), bw.Send(0.0, 1, 3, b"b", accepted=False)]
    ok = bm.judge(_iteration(sends, [(2, b"a", 0.5)]))
    assert (ok.attempted, ok.failed, ok.correct) == (2, 1, True)
    misrouted = bm.judge(_iteration(sends, [(3, b"a", 0.5)]))
    assert misrouted.failed == 2 and not misrouted.correct
    duplicate = bm.judge(_iteration(sends, [(2, b"a", 0.5), (2, b"a", 0.7)]))
    assert duplicate.failed == 1 and duplicate.unexpected == 1 and not duplicate.correct
    evicted = bm.judge(_iteration(sends, [(2, b"a", 0.5)], evicted=[9]))
    assert not evicted.correct


def test_latency_counts_from_the_due_time():
    sends = [bw.Send(1.0, 1, 2, b"a", accepted=True)]
    assert bm.latencies(_iteration(sends, [(2, b"a", 1.25)])) == [0.25]


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert bm.percentile(values, 50) == 50
    assert bm.percentile(values, 90) == 90
    assert bm.percentile(values, 99) == 99
    assert bm.percentile([3.0], 99) == 3.0


def test_setup_only_times_a_cold_setup():
    for name in ("lan-steady", "live-8"):
        assert 0 < bw.setup_only(bw.WORKLOADS[name], 1) < 10


# ---------------------------------------------------------------------------
# self time
# ---------------------------------------------------------------------------
def _busy(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_self_time_is_span_minus_children():
    tracer = bt.Tracer()

    def inner():
        _busy(0.02)

    def outer():
        _busy(0.01)
        tracer.count("outer")
        frame = tracer.enter("crypto.inner")
        try:
            inner()
        finally:
            tracer.exit(frame)
        _busy(0.01)

    def body():
        frame = tracer.enter("protocol.outer")
        try:
            outer()
        finally:
            tracer.exit(frame)

    tracer.run(body)
    selfs = tracer.self_seconds()
    outer_total = tracer.inclusive_seconds("protocol.outer")
    inner_total = tracer.inclusive_seconds("crypto.inner")
    assert abs(selfs["protocol"] - (outer_total - inner_total)) < 1e-9
    assert abs(selfs["crypto"] - inner_total) < 1e-9
    assert selfs["protocol"] >= 0.02 and inner_total >= 0.02
    assert abs(bm.accounting_gap(tracer)) < 1e-9
    assert tracer.edges[("protocol.outer", "crypto.inner")][0] == 1


def test_nested_spans_of_one_name_count_once():
    tracer = bt.Tracer()

    def nested():
        outer = tracer.enter("shard.fingerprint")
        inner = tracer.enter("shard.fingerprint")
        _busy(0.01)
        tracer.exit(inner)
        tracer.exit(outer)

    tracer.run(nested)
    assert tracer.calls("shard.fingerprint") == 2
    assert tracer.inclusive_seconds("shard.fingerprint") == tracer.edges[("unattributed.root", "shard.fingerprint")][1]


def test_wrappers_are_inert_until_a_tracer_runs_and_pickle():
    calls = []
    wrapped = bt.Traced(calls.append, "network.callback")
    wrapped(1)
    tracer = bt.Tracer()
    tracer.run(wrapped, 2)
    assert calls == [1, 2]
    assert tracer.calls("network.callback") == 1
    restored = pickle.loads(pickle.dumps(bt.Traced(len, "engine.callback")))
    assert restored("abc") == 3 and restored.name == "engine.callback"


def test_callbacks_are_attributed_to_the_owning_module():
    from repro.simnet.network import StarNetwork
    from repro.simnet.transport import ReliableTransport

    assert bt.layer_of_callable(StarNetwork.send) == "network"
    assert bt.layer_of_callable(ReliableTransport.send) == "transport"
    assert bt.layer_of_callable(_busy) == "unattributed"


def test_install_undo_restores_every_entry_point():
    from repro.core import onion
    from repro.simnet.engine import Simulator

    before = (Simulator.schedule, Simulator.run, onion.peel)
    patches = bt.install()
    assert Simulator.run is not before[1] and onion.peel is not before[2]
    patches.undo()
    assert (Simulator.schedule, Simulator.run, onion.peel) == before
