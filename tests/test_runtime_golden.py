"""Golden digests of the executor's outputs.

Every other byte-identity test compares two runs of the same code, so
a change that moves the schedule the same way on every run passes
them.  These tests pin the sha256 of ``RuntimeMetrics.to_json()`` and
of the Chrome trace for five fixed scenarios, so a refactor of the
executor must reproduce the exact schedule, charges, retries and trace
events of the code that recorded them.

The fault plans are explicit lists of crashes, reconfiguration
failures and stalls.  They carry no bit flips: a flip emits a
``job.verify_failed`` instant whose residual depends on the result
values, and gang values depend on the host BLAS library.  Without
flips nothing value-dependent reaches either artifact, so the digests
hold on any host.
"""

import hashlib

import numpy as np
import pytest

from repro.faults import FaultEvent, FaultKind, FaultPlan
from repro.obs import TraceRecorder, chrome_trace_json
from repro.runtime import BlasRequest, BlasRuntime

CRASH = FaultKind.BLADE_CRASH
RECONFIG = FaultKind.RECONFIG_FAIL
STALL = FaultKind.MEM_STALL


def _blade(chassis, blade):
    return f"xd1/chassis{chassis}/blade{blade}"


def _dense(rng, op, n, **kwargs):
    if op == "dot":
        operands = (rng.standard_normal(n), rng.standard_normal(n))
    elif op == "gemv":
        operands = (rng.standard_normal((n, n)), rng.standard_normal(n))
    else:
        operands = (rng.standard_normal((n, n)),
                    rng.standard_normal((n, n)))
    return BlasRequest(op, operands, **kwargs)


def _batch_with_followers(recorder):
    """Same-shape gemm batches on two blades: a crash cuts one batch
    short (its unfinished followers retry), a stall stretches a
    follower, a failed bitstream load delays a pass."""
    rng = np.random.default_rng(101)
    plan = FaultPlan(events=(
        FaultEvent(RECONFIG, at=0.0, target=_blade(0, 1)),
        FaultEvent(STALL, at=0.0035, target=_blade(0, 0),
                   multiplier=3.0),
        FaultEvent(CRASH, at=0.0052, target=_blade(0, 0),
                   duration=0.003),
    ), seed=5)
    runtime = BlasRuntime(blades=2, batch_limit=4, fault_plan=plan,
                          recorder=recorder)
    for _ in range(10):
        runtime.submit(_dense(rng, "gemm", 64), at=0.0)
    for i in range(4):
        runtime.submit(_dense(rng, "gemm", 32), at=1e-4 * i)
        runtime.submit(_dense(rng, "dot", 512), at=1e-4 * i)
    return runtime


def _gang_degrades(recorder):
    """A four-blade gang loses a member mid-pass and retries at half
    width; a stall on another member stretches the retried pass."""
    rng = np.random.default_rng(202)
    plan = FaultPlan(events=(
        FaultEvent(RECONFIG, at=0.0, target=_blade(0, 2)),
        FaultEvent(CRASH, at=0.004, target=_blade(0, 1),
                   duration=0.01),
        FaultEvent(STALL, at=0.006, target=_blade(0, 0),
                   multiplier=2.0),
    ), seed=7)
    runtime = BlasRuntime(blades=6, max_gang=4, fault_plan=plan,
                          verify_results=True, recorder=recorder)
    runtime.submit(_dense(rng, "gemm", 256, m=64), at=0.0)
    runtime.submit(_dense(rng, "gemm", 32), at=0.001)
    runtime.submit(_dense(rng, "dot", 1024), at=0.001)
    return runtime


def _mixed_two_chassis_quarantine(recorder):
    """Batches and gangs share two chassis while one blade crashes
    often enough to be quarantined."""
    rng = np.random.default_rng(303)
    victim = _blade(0, 0)
    plan = FaultPlan(events=(
        FaultEvent(CRASH, at=0.0005, target=victim, duration=0.001),
        FaultEvent(RECONFIG, at=0.0, target=_blade(1, 0)),
        FaultEvent(CRASH, at=0.003, target=victim, duration=0.001),
        FaultEvent(STALL, at=0.002, target=_blade(1, 1),
                   multiplier=5.0),
        FaultEvent(CRASH, at=0.006, target=_blade(1, 2),
                   duration=0.002),
        FaultEvent(CRASH, at=0.008, target=victim, duration=0.001),
    ), seed=11)
    runtime = BlasRuntime(chassis=2, blades=3, max_gang=3,
                          quarantine_after=2, fault_plan=plan,
                          recorder=recorder)
    sizes = {"dot": 2048, "gemv": 64, "gemm": 32}
    for i in range(18):
        op = ("dot", "gemv", "gemm")[i % 3]
        runtime.submit(_dense(rng, op, sizes[op],
                              priority=int(rng.integers(0, 3))),
                       at=2e-4 * i)
    for i in range(3):
        runtime.submit(_dense(rng, "gemm", 128, m=32), at=1e-3 * i)
    return runtime


def _full_machine_burst(recorder):
    """Twelve chassis, gangs up to 72 blades in fast mode: spanning
    gangs, single-chassis gangs and chassis fallback widths."""
    rng = np.random.default_rng(404)
    runtime = BlasRuntime(chassis=12, blades=6, max_gang=72,
                          sim_mode="fast", recorder=recorder)
    for n, max_blades in ((512, None), (512, None), (512, None),
                          (512, None), (512, None), (256, 4),
                          (256, None)):
        runtime.submit(_dense(rng, "gemm", n, k=8, m=32,
                              max_blades=max_blades), at=0.0)
    return runtime


def _work_steal_stream(recorder):
    """Requests pinned to a one-blade home chassis overflow onto the
    drained chassis as steals.  Two-blade gemms span chassis or fall
    back to one blade, and a crash strikes a one-blade fallback."""
    rng = np.random.default_rng(505)
    plan = FaultPlan(events=(
        FaultEvent(CRASH, at=0.0056, target=_blade(0, 0),
                   duration=0.001),
    ), seed=13)
    runtime = BlasRuntime(chassis=3, blades=1, max_gang=2,
                          fault_plan=plan, recorder=recorder)
    for i in range(9):
        op = ("dot", "gemv", "gemm")[i % 3]
        size = {"dot": 4096, "gemv": 64, "gemm": 32}[op]
        runtime.submit(_dense(rng, op, size, home_chassis=i % 2),
                       at=5e-5 * i)
    for i in range(3):
        runtime.submit(_dense(rng, "gemm", 64, m=32), at=2e-4 * i)
    return runtime


SCENARIOS = {
    "batch_with_followers": _batch_with_followers,
    "gang_degrades": _gang_degrades,
    "mixed_two_chassis_quarantine": _mixed_two_chassis_quarantine,
    "full_machine_burst": _full_machine_burst,
    "work_steal_stream": _work_steal_stream,
}

#: sha256 of (metrics JSON, Chrome trace JSON) per scenario.
GOLDEN = {
    "batch_with_followers": (
        "05afd96753fd813ebd4b96209b99fa06b05b873a8f0ff8be31a0f81955e5616d",
        "ff0ef7a4720550b48338fd1316b46a26008c1bd285d50847088f6dd44fc60508"),
    "full_machine_burst": (
        "e232f25649a4620375662b138b7f1d41a1874411aea857734462ab990177a765",
        "732ef0f384c5b78141727bf3b22552475efe322c6d9b3f2c8920b6b03ce24cf9"),
    "gang_degrades": (
        "5abd90943239a4d10c686210d1c5e256e5fe24c05375d4fbff8ce80f3b2e8cff",
        "46a72dd033e58d6bf0aeda292c5e5fdb15f46df2f173724cc68da89ebad92304"),
    "mixed_two_chassis_quarantine": (
        "6f4eb9408bcab2dc50a65a6eb14e33ced813be0259fadc49ab3fb51b33114c9f",
        "a0cfcc86870cf4d8ac1702108c5d7460b442bbc2bb65d24669dd7d346179b283"),
    "work_steal_stream": (
        "93f28cdd46112d0bce63335aa98c2028a651048b53c37aef2997899964c7cc7e",
        "0bc130be53ec4cc2fa4ccb9bc2499a6c0b1622c942d7fe4dc3f0717f321037f1"),
}


def _digests(name):
    recorder = TraceRecorder()
    runtime = SCENARIOS[name](recorder)
    metrics = runtime.run()
    return (hashlib.sha256(metrics.to_json().encode()).hexdigest(),
            hashlib.sha256(
                chrome_trace_json(recorder).encode()).hexdigest())


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_outputs_match_golden_digests(name):
    assert _digests(name) == GOLDEN[name]
