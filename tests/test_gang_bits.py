"""Gang value bits depend only on the request.

A gemm on the Section 5.2 linear array must give the same float64 bits
whatever the runtime did with it: the gang width (any l ≥ 2), a span
across chassis, the sim mode, a crash that halved the gang, or a
batch it joined.  Every test compares digests within one run and pins
no hash, because the gang's block products still go through the host
BLAS (see ``tests/test_blas_core_type.py``).  ``l = 1`` runs the
single-blade array, whose bits differ by design.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.blas.api import BlasCall, max_gemm_gang
from repro.runtime import BlasRequest, BlasRuntime, JobState
from repro.serve.server import result_digest
from tests.test_runtime_golden import _gang_degrades


@settings(max_examples=12, deadline=None)
@given(st.integers(1, 128), st.integers(1, 128), st.integers(1, 128),
       st.sampled_from([8, 16, 32]), st.integers(0, 2 ** 31))
def test_gang_bits_match_across_widths_modes_and_chassis(p, q, r, m,
                                                         seed):
    widest = max_gemm_gang(p, q, r, m=m)
    assume(widest >= 2)
    rng = np.random.default_rng(seed)
    operands = (rng.standard_normal((p, q)), rng.standard_normal((q, r)))
    digests = {
        result_digest(BlasCall(
            "gemm", operands=operands, m=m, blades=blades,
            sim_mode=sim_mode,
            fpgas_per_chassis=per_chassis).execute().value)
        for blades in range(2, widest + 1)
        for sim_mode in ("cycle", "fast")
        for per_chassis in (None, blades - 1)}
    assert len(digests) == 1


def _run_alone(request, **kwargs):
    runtime = BlasRuntime(**kwargs)
    job = runtime.submit(request)
    runtime.run()
    assert job.state is JobState.DONE
    return job


def test_runtime_gang_bits_match_across_placements():
    # test_runtime_golden's gang_degrades request (n = 256, m = 64):
    # there a crash halves its 4-blade gang and the retry runs on 2.
    degraded = _gang_degrades(None)
    degraded.run()
    retried = degraded.jobs[0]
    assert retried.state is JobState.DONE
    assert (retried.retries, retried.gang_size) == (1, 2)
    request = retried.request
    clean = _run_alone(request, blades=6, max_gang=4)
    assert clean.gang_size == 4
    narrow = _run_alone(request, blades=6, max_gang=2)
    assert narrow.gang_size == 2
    fast = _run_alone(request, blades=6, max_gang=4, sim_mode="fast")
    assert fast.gang_size == 4
    spanning = _run_alone(request, chassis=2, blades=2, max_gang=4)
    assert {name.split("/")[1] for name in spanning.gang_devices} == {
        "chassis0", "chassis1"}
    digests = {result_digest(job.result)
               for job in (clean, narrow, fast, spanning, retried)}
    assert len(digests) == 1


def test_batch_follower_bits_match_a_lone_run():
    rng = np.random.default_rng(11)
    requests = [BlasRequest("gemm", (rng.standard_normal((48, 48)),
                                     rng.standard_normal((48, 48))))
                for _ in range(2)]
    runtime = BlasRuntime(blades=1)
    lead, follower = (runtime.submit(request) for request in requests)
    runtime.run()
    assert follower.batch_id == lead.batch_id
    alone = _run_alone(requests[1], blades=1)
    assert result_digest(follower.result) == result_digest(alone.result)
