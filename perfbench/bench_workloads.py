"""The benchmark's four workloads, driven through the package's public API.

Each workload function runs one *iteration*: a cold set-up, one open
loop drawn from ``input_seed``, a drain, and a teardown. It returns an
:class:`Iteration` holding what the benchmark measured from outside —
wall and CPU time, every attempted send and every delivery — and the
run's own counters. Scoring and correctness checks live in
:mod:`bench_metrics`.
"""

from __future__ import annotations

import asyncio
import gc
import glob
import hashlib
import json
import os
import random
import resource
import shutil
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro import crypto
from repro.core.config import RacConfig
from repro.core.system import RacSystem
from repro.live.cluster import LiveCluster, live_config
from repro.orchestrator.sharded import run_sharded
from repro.simnet.shard import ScaleSpec, build_shard_system, plan_population, plan_traffic
from repro.simnet.snapshot import load_snapshot
from repro.topo.model import preset
from repro.topo.run import topo_sim_config

from bench_metrics import BROADCAST_COUNTERS

#: Sends per node per second of the sim open loop: about 60% of the
#: slot capacity 1 / (send_interval * (L + 1)) = 6.7 msg/s of the
#: ``small`` shape (0.05 s slots, L = 2).
SIM_RATE = 4.0
#: Live open loop per node: 8 nodes x 1.5 = 12 msg/s, about half the
#: cluster's slot capacity 8 / (0.1 s * 3) = 27 msg/s.
LIVE_RATE = 1.5
#: Granularity of the drain loops (simulated or wall seconds).
DRAIN_STEP = 0.25
#: Seed of the deployment (identities, hence groups, and the WAN
#: latency matrix) on the monolithic and live workloads. It is held
#: fixed so that runs differ only in their traffic: at N=32 the group
#: split alone moves the work per node-second by up to 15%.
DEPLOYMENT_SEED = 7


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: Nodes in the deployment.
    nodes: int
    #: Seconds of open-loop traffic per iteration (simulated or wall);
    #: the simulated horizon on ``sharded-256``, whose sends the
    #: library queues at t = 0.
    window: float
    #: Longest drain after the window before undelivered sends fail.
    drain: float
    #: Distinct inputs per run, each run once in the fixed pass.
    inputs: int
    #: Replay the first input at the end of the fixed pass and require
    #: bit-identical simulated statistics.
    replay: bool = True
    simulated: bool = True


WORKLOADS: "Dict[str, Workload]" = {
    w.name: w
    for w in (
        Workload(
            "lan-steady",
            "lossless star, sim keys: engine, network and ARQ transport carry the run; "
            "crypto idles and nothing is retransmitted",
            nodes=32, window=1.5, drain=6.0, inputs=3,
        ),
        Workload(
            "wan-lossy-dh",
            "wan-king delays, 2% link loss, real DH keys: crypto is a large share of the "
            "run and the transport retransmits, guarding loss recovery",
            nodes=32, window=1.0, drain=8.0, inputs=2,
        ),
        Workload(
            "sharded-256",
            "256 nodes in 8 group-shards on a 2-worker pool: snapshots, barriers, "
            "fingerprints and pool handoff dominate",
            nodes=256, window=4.0, drain=0.0, inputs=1, replay=False,
        ),
        Workload(
            "live-8",
            "8 nodes over loopback TCP in one asyncio loop: framing, wire codecs and "
            "socket I/O; no engine or ARQ transport",
            nodes=8, window=8.0, drain=5.0, inputs=2, replay=False, simulated=False,
        ),
    )
}


@dataclass
class Send:
    due: float
    src: int
    dst: int
    payload: bytes
    accepted: bool = False
    #: When the generator actually issued it (same clock as ``due``).
    issued: float = 0.0


@dataclass
class Iteration:
    """What one workload iteration did, measured from outside."""

    input_seed: int
    setup_s: float
    run_wall_s: float
    run_cpu_s: float
    #: Node-seconds of protocol operation advanced over ``node_wall_s``.
    node_seconds: float
    node_wall_s: float
    sends: "List[Send]"
    #: (destination node id, payload, delivery time on the send clock).
    deliveries: "List[Tuple[int, bytes, float]]"
    evicted: "List[int]"
    counters: "Dict[str, float]"
    #: Digest of every simulated statistic (None on live runs).
    digest: "Optional[str]" = None
    extra: "Dict[str, Any]" = field(default_factory=dict)


def cold_start() -> None:
    """The state every set-up starts from: empty crypto caches and no
    garbage left over from the previous iteration."""
    crypto.clear_process_caches()
    gc.collect()


def cpu_seconds() -> float:
    """User + system CPU of this process and its reaped children."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def open_loop(rng: random.Random, ids: "List[int]", start: float, window: float, rate: float) -> "List[Send]":
    """Each node sends at a fixed rate from a random phase to random peers."""
    interval = 1.0 / rate
    sends: "List[Send]" = []
    for index, src in enumerate(ids):
        due = start + rng.random() * interval
        k = 0
        while due < start + window:
            dst = rng.choice([d for d in ids if d != src])
            sends.append(Send(due, src, dst, f"pb/{index}/{k}".encode()))
            due += interval
            k += 1
    sends.sort(key=lambda s: (s.due, s.src))
    return sends


def _digest(body: Any) -> str:
    blob = json.dumps(body, sort_keys=True, separators=(",", ":"), default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()


# ---------------------------------------------------------------------------
# monolithic simulator workloads
# ---------------------------------------------------------------------------
def _sim_config(workload: Workload) -> RacConfig:
    if workload.name == "lan-steady":
        return RacConfig.small(group_max=16)
    return topo_sim_config(group_max=16, key_backend="dh", link_loss_rate=0.02)


def _deploy(workload: Workload, config: RacConfig) -> RacSystem:
    topology = None
    if workload.name == "wan-lossy-dh":
        topology = preset("wan-king", n=workload.nodes, seed=DEPLOYMENT_SEED)
    return RacSystem(config, seed=DEPLOYMENT_SEED, topology=topology)


def _issue(system: RacSystem, send: Send) -> None:
    send.issued = system.now
    send.accepted = system.send(send.src, send.dst, send.payload)


def _run_phase(tracer, fn):
    """Call ``fn``; under the root span of ``tracer`` when tracing."""
    return fn() if tracer is None else tracer.run(fn)


def run_sim(workload: Workload, input_seed: int, tracer=None) -> Iteration:
    config = _sim_config(workload)
    cold_start()
    started = time.perf_counter()
    system = _deploy(workload, config)
    ids = system.bootstrap(workload.nodes)
    setup_s = time.perf_counter() - started

    # The open loop starts after the 2T relay quarantine: earlier sends
    # would only wait in the queue for relays to become usable.
    start = 2 * config.join_settle_time
    sends = open_loop(random.Random(input_seed), ids, start, workload.window, SIM_RATE)
    for send in sends:
        system.sim.schedule_at(send.due, _issue, system, send)

    def advance() -> None:
        system.run(start + workload.window)
        deadline = start + workload.window + workload.drain
        while system.now < deadline:
            delivered = sum(len(node.delivered) for node in system.nodes.values())
            if delivered >= sum(s.accepted for s in sends):
                break
            system.run(DRAIN_STEP)

    cpu0, wall0 = cpu_seconds(), time.perf_counter()
    _run_phase(tracer, advance)
    run_wall_s = time.perf_counter() - wall0
    run_cpu_s = cpu_seconds() - cpu0

    deliveries = [
        (nid, payload, at)
        for nid, node in system.nodes.items()
        for payload, at in zip(node.delivered, node.delivered_at)
    ]
    counters = system.stats_report()
    groups = [len(g) for g in system.directory.groups.values()]
    digest = _digest(
        {
            "stats": counters,
            "deliveries": sorted((nid, p.hex(), at) for nid, p, at in deliveries),
            "evicted": sorted(system.evicted),
            "now": system.now,
        }
    )
    return Iteration(
        input_seed=input_seed,
        setup_s=setup_s,
        run_wall_s=run_wall_s,
        run_cpu_s=run_cpu_s,
        node_seconds=workload.nodes * system.now,
        node_wall_s=run_wall_s,
        sends=sends,
        deliveries=deliveries,
        evicted=sorted(system.evicted),
        counters=counters,
        digest=digest,
        extra={"config": config, "groups": groups},
    )


# ---------------------------------------------------------------------------
# sharded simulator workload
# ---------------------------------------------------------------------------
def sharded_spec(workload: Workload, input_seed: int) -> ScaleSpec:
    # The scale preset puts relay_timeout on its (L+2)-slot floor, where
    # an honest relay's late re-broadcast triggers a retry and a second
    # delivery at N=256; 2.0 s is the clean-control setting the N=256
    # coalition evidence uses (experiments/coalition_matrix.py).
    return ScaleSpec(
        nodes=workload.nodes, num_shards=8, seed=input_seed, horizon=workload.window,
        epoch=2.0, messages=1, group_max=16, config={"relay_timeout": 2.0},
    )


def run_sharded_workload(
    workload: Workload, input_seed: int, scratch: str, tracer=None, serial: bool = False
) -> Iteration:
    """Pool mode, or inline with ``serial`` (traced runs: the tracer
    then sees every shard call)."""
    spec = sharded_spec(workload, input_seed)
    cold_start()
    started = time.perf_counter()
    for shard in range(spec.num_shards):
        build_shard_system(spec, shard)
    setup_s = time.perf_counter() - started

    run_dir = os.path.join(scratch, f"sharded-{input_seed}")
    shutil.rmtree(run_dir, ignore_errors=True)
    cold_start()
    cpu0, wall0 = cpu_seconds(), time.perf_counter()
    outcome = _run_phase(tracer, lambda: run_sharded(spec, run_dir, workers=2, serial=serial))
    run_wall_s = time.perf_counter() - wall0
    run_cpu_s = cpu_seconds() - cpu0

    # Every send is queued when its shard is built, at t = 0.
    _, materials, directory = plan_population(spec)
    sends = [Send(0.0, src, dst, payload, accepted=True) for src, dst, payload in plan_traffic(spec, materials, directory)]
    deliveries: "List[Tuple[int, bytes, float]]" = []
    groups: "List[int]" = []
    for path in sorted(glob.glob(os.path.join(run_dir, "shards", "*.snap"))):
        system, _ = load_snapshot(path)
        groups.extend(len(g) for gid, g in system.directory.groups.items() if gid in system.bundle_gids)
        for nid, node in system.nodes.items():
            deliveries.extend((nid, p, at) for p, at in zip(node.delivered, node.delivered_at))
    shutil.rmtree(run_dir, ignore_errors=True)
    counters = outcome.stats_report()
    digest = _digest(
        {
            "stats": counters,
            "fingerprint": outcome.merged_fingerprint,
            "deliveries": sorted((nid, p.hex(), at) for nid, p, at in deliveries),
        }
    )
    return Iteration(
        input_seed=input_seed,
        setup_s=setup_s,
        run_wall_s=run_wall_s,
        run_cpu_s=run_cpu_s,
        node_seconds=spec.nodes * spec.horizon,
        node_wall_s=run_wall_s,
        sends=sends,
        deliveries=deliveries,
        evicted=sorted(int(n) for n in outcome.evicted),
        counters=counters,
        digest=digest,
        extra={"config": spec.build_config(), "groups": groups},
    )


# ---------------------------------------------------------------------------
# live TCP workload
# ---------------------------------------------------------------------------
#: Period of the benchmark-owned probe timer that measures loop lag.
PROBE_PERIOD = 0.02


async def _run_live(workload: Workload, input_seed: int, tracer=None) -> Iteration:
    loop = asyncio.get_running_loop()
    deliveries: "List[Tuple[int, bytes, float]]" = []

    def on_delivered(node_id: int, payload: bytes) -> None:
        deliveries.append((node_id, payload, loop.time()))

    config = live_config()
    cold_start()
    started = time.perf_counter()
    cluster = LiveCluster(workload.nodes, config=config, seed=DEPLOYMENT_SEED, on_delivered=on_delivered)
    await cluster.start()
    setup_s = time.perf_counter() - started
    active_at = loop.time()

    lags: "List[float]" = []
    due = loop.time() + PROBE_PERIOD
    probing = True

    def probe() -> None:
        nonlocal due
        now = loop.time()
        lags.append(max(0.0, now - due))
        if probing:
            due = now + PROBE_PERIOD
            loop.call_at(due, probe)

    loop.call_at(due, probe)

    # Start after the 2T relay quarantine every env clock enforces.
    await asyncio.sleep(2 * config.join_settle_time)
    ids = [m.node_id for m in cluster.materials]
    index_of = {nid: i for i, nid in enumerate(ids)}
    origin = loop.time()
    sends = open_loop(random.Random(input_seed), ids, origin, workload.window, LIVE_RATE)

    def issue(send: Send) -> None:
        send.issued = loop.time()
        send.accepted = cluster.queue_message(index_of[send.src], index_of[send.dst], send.payload)

    cpu0, wall0 = cpu_seconds(), time.perf_counter()
    if tracer is not None:
        tracer.start()
    for send in sends:
        loop.call_at(send.due, issue, send)
    await asyncio.sleep(max(0.0, origin + workload.window - loop.time()))
    deadline = loop.time() + workload.drain
    while loop.time() < deadline and len(deliveries) < sum(s.accepted for s in sends):
        await asyncio.sleep(DRAIN_STEP / 5)
    if tracer is not None:
        tracer.stop()
    run_wall_s = time.perf_counter() - wall0
    run_cpu_s = cpu_seconds() - cpu0
    ended_at = loop.time()
    probing = False
    report = await cluster.shutdown(ended_at - active_at)

    counters = report.counters()
    slots = sum(counters.get(k, 0) for k in BROADCAST_COUNTERS)
    return Iteration(
        input_seed=input_seed,
        setup_s=setup_s,
        run_wall_s=run_wall_s,
        run_cpu_s=run_cpu_s,
        # Origination slots fired x slot length: a saturated loop that
        # misses slots advances fewer node-seconds than wall time.
        node_seconds=slots * config.send_interval,
        node_wall_s=ended_at - active_at,
        sends=sends,
        deliveries=deliveries,
        evicted=list(report.evicted),
        counters=counters,
        extra={
            "config": config,
            "groups": [workload.nodes],
            "loop_lag": lags,
            "lifetime_s": ended_at - active_at,
            "errors": list(report.errors),
        },
    )


def run_live(workload: Workload, input_seed: int, tracer=None) -> Iteration:
    return asyncio.run(_run_live(workload, input_seed, tracer))


def run_iteration(
    workload: Workload, input_seed: int, scratch: str, tracer=None, serial: bool = False
) -> Iteration:
    """One iteration; with ``tracer``, its run phase is the traced run."""
    if workload.name == "sharded-256":
        return run_sharded_workload(workload, input_seed, scratch, tracer, serial)
    if workload.simulated:
        return run_sim(workload, input_seed, tracer)
    return run_live(workload, input_seed, tracer)


def setup_only(workload: Workload, input_seed: int) -> float:
    """Wall seconds of one cold set-up, torn down without traffic."""
    cold_start()
    if workload.name == "sharded-256":
        spec = sharded_spec(workload, input_seed)
        started = time.perf_counter()
        for shard in range(spec.num_shards):
            build_shard_system(spec, shard)
        return time.perf_counter() - started
    if workload.simulated:
        config = _sim_config(workload)
        started = time.perf_counter()
        _deploy(workload, config).bootstrap(workload.nodes)
        return time.perf_counter() - started

    async def start_cluster() -> float:
        started = time.perf_counter()
        cluster = LiveCluster(workload.nodes, config=live_config(), seed=DEPLOYMENT_SEED)
        await cluster.start()
        elapsed = time.perf_counter() - started
        await cluster.shutdown()
        return elapsed

    return asyncio.run(start_cluster())
