"""Seeded multi-tenant traffic replay against a live ``repro serve``.

The generator side is pure :func:`repro.workloads.multi_tenant_mix`:
one seed fully determines the stream — arrival times, tenant
attribution, operations, sizes, operand seeds.  The client side
replays that stream over the wire (pipelined in chunks so the TCP
buffers never deadlock), draining every ``drain_every`` submissions so
a long replay exercises multiple epochs, and folds the server's own
metrics into a client-side report with a fairness verdict.  Against a
virtual-clock server, the same seed produces a byte-identical report —
that is the replay contract CI pins.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.serve import protocol
from repro.serve.server import STREAM_LIMIT
from repro.workloads import DEFAULT_TENANTS, multi_tenant_mix

__all__ = [
    "LoadgenConfig",
    "build_stream",
    "run_loadgen",
    "render_report",
]

#: Submits in flight before the client stops to read responses.
PIPELINE_CHUNK = 512


@dataclass(frozen=True)
class LoadgenConfig:
    """One replay run: what to generate and how to pace drains."""

    count: int = 10000
    seed: int = 0
    #: ``(name, traffic_weight)`` pairs; ``None`` =
    #: :data:`repro.workloads.DEFAULT_TENANTS`.
    tenants: Optional[Tuple[Tuple[str, float], ...]] = None
    #: Total request arrival rate (requests per *virtual* second);
    #: ``None`` submits everything at t=0, which mostly exercises the
    #: quota rejects.
    arrival_rate: Optional[float] = 1000.0
    #: Submissions per epoch (a ``drain`` is sent after each slice).
    drain_every: int = 2500
    #: Send ``shutdown`` after the report (CI teardown).
    shutdown: bool = False

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError("count must be positive")
        if self.drain_every < 1:
            raise ValueError("drain_every must be positive")
        if self.arrival_rate is not None and self.arrival_rate <= 0:
            raise ValueError("arrival_rate must be positive (or None)")

    @property
    def tenant_shares(self) -> Dict[str, float]:
        if self.tenants is None:
            return dict(DEFAULT_TENANTS)
        return dict(self.tenants)


def build_stream(config: LoadgenConfig) -> List[Tuple[float, str, Dict]]:
    """The fully seeded request stream this config replays."""
    rng = np.random.default_rng(config.seed)
    return multi_tenant_mix(config.count, rng,
                            tenants=config.tenant_shares,
                            arrival_rate=config.arrival_rate)


async def _replay(config: LoadgenConfig, host: str,
                  port: int) -> Dict[str, Any]:
    stream = build_stream(config)
    reader, writer = await asyncio.open_connection(
        host, port, limit=STREAM_LIMIT)

    async def ask(message: Mapping[str, Any]) -> Dict[str, Any]:
        writer.write(protocol.encode(message))
        await writer.drain()
        return protocol.decode(await reader.readline())

    per_tenant: Dict[str, Dict[str, int]] = {
        name: {"sent": 0, "accepted": 0, "rejected": 0}
        for name in sorted(config.tenant_shares)}
    reject_reasons: Dict[str, int] = {}
    result_states: Dict[str, int] = {}
    epochs: List[Dict[str, Any]] = []
    result_hash = hashlib.sha256()

    async def read_submit_responses(expected: int) -> None:
        for _ in range(expected):
            response = protocol.decode(await reader.readline())
            tenant = pending_tenant[response["id"]]
            if response["type"] == "accepted":
                per_tenant[tenant]["accepted"] += 1
            else:
                per_tenant[tenant]["rejected"] += 1
                reason = response.get("reason", "error")
                reject_reasons[reason] = \
                    reject_reasons.get(reason, 0) + 1

    async def drain_epoch() -> None:
        response = await ask({"op": "drain"})
        if response.get("type") != "drained":
            raise protocol.ProtocolError(
                f"expected drained, got {response}")
        for entry in response["results"]:
            state = entry["state"]
            result_states[state] = result_states.get(state, 0) + 1
            result_hash.update(protocol.encode(entry))
        epochs.append({
            "epoch": response["epoch"],
            "makespan_seconds": response["makespan_seconds"],
            "results": len(response["results"]),
        })

    pending_tenant: Dict[int, str] = {}
    in_flight = 0
    since_drain = 0
    for request_id, (at, tenant, spec) in enumerate(stream):
        pending_tenant[request_id] = tenant
        per_tenant[tenant]["sent"] += 1
        writer.write(protocol.encode({
            "op": "submit", "id": request_id, "tenant": tenant,
            "at": at, "call": spec}))
        in_flight += 1
        since_drain += 1
        if in_flight >= PIPELINE_CHUNK:
            await writer.drain()
            await read_submit_responses(in_flight)
            in_flight = 0
        if since_drain >= config.drain_every:
            await writer.drain()
            await read_submit_responses(in_flight)
            in_flight = 0
            await drain_epoch()
            since_drain = 0
    await writer.drain()
    await read_submit_responses(in_flight)
    if since_drain:
        await drain_epoch()

    metrics_response = await ask({"op": "metrics"})
    metrics = metrics_response.get("metrics", {})
    slo_response = await ask({"op": "slo"})
    slo_verdict = slo_response.get("slo")
    if config.shutdown:
        await ask({"op": "shutdown"})
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionError, OSError):
        pass

    starved = metrics.get("starved_tenants", [])
    report: Dict[str, Any] = {
        "config": {
            "count": config.count,
            "seed": config.seed,
            "tenants": config.tenant_shares,
            "arrival_rate": config.arrival_rate,
            "drain_every": config.drain_every,
        },
        "client": {
            "per_tenant": per_tenant,
            "reject_reasons": reject_reasons,
            "result_states": result_states,
            "results_digest": result_hash.hexdigest()[:16],
        },
        "epochs": epochs,
        "server_metrics": metrics,
        "slo": slo_verdict,
        "fairness": {
            "starved_tenants": starved,
            "ok": not starved,
        },
    }
    return report


def run_loadgen(config: LoadgenConfig, host: str = "127.0.0.1",
                port: int = 0) -> Dict[str, Any]:
    """Replay ``config`` against ``host:port``; returns the report."""
    return asyncio.run(_replay(config, host, port))


def render_report(report: Mapping[str, Any]) -> str:
    """Canonical human/CI rendering — deterministic byte-for-byte."""
    return json.dumps(report, sort_keys=True, indent=2)
