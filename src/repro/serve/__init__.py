"""repro.serve — async multi-tenant BLAS service over the runtime.

The paper benchmarks one dedicated user per chassis; this package
models the deployment the XD1 actually shipped into — a shared
machine-room resource fronted by a service.  It wraps
:class:`repro.runtime.executor.BlasRuntime` in a newline-delimited
JSON-over-TCP front-end (:mod:`repro.serve.protocol`,
:mod:`repro.serve.server`) with per-tenant admission control and
weighted fair-share ordering (:mod:`repro.serve.tenant`), same-shape
gemm coalescing feeding the executor's batching
(:mod:`repro.serve.coalescer`), the runtime's virtual/hybrid clocks
(:mod:`repro.runtime.clock`), and a seeded multi-tenant load generator
(:mod:`repro.serve.loadgen`).  In virtual-clock mode the whole stack
stays deterministic: same seed in, byte-identical metrics and traces
out.
"""

from repro.serve.coalescer import CoalesceStats, coalesce, gemm_shape_key
from repro.serve.protocol import (PROTOCOL_VERSION, REJECT_INVALID,
                                  REJECT_PENDING, REJECT_QUOTA,
                                  ProtocolError)
from repro.serve.server import (BlasServer, BlasService, ServeConfig,
                                materialize, result_digest, run_server)
from repro.serve.tenant import (AdmissionController, TenantQuota,
                                TokenBucket, weighted_deficit_order)

__all__ = [
    "AdmissionController",
    "BlasServer",
    "BlasService",
    "CoalesceStats",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "REJECT_INVALID",
    "REJECT_PENDING",
    "REJECT_QUOTA",
    "ServeConfig",
    "TenantQuota",
    "TokenBucket",
    "coalesce",
    "gemm_shape_key",
    "materialize",
    "result_digest",
    "run_server",
    "weighted_deficit_order",
]
