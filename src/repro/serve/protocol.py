"""Wire protocol of ``repro serve``: newline-delimited JSON over TCP.

Every message is one JSON object on one line.  Client requests carry an
``op`` field; the server answers each request with exactly one response
object carrying ``ok`` and ``type``.  Encoding is canonical (sorted
keys, compact separators), so a same-seed replay produces a
byte-identical byte stream in both directions.

Requests
--------
``{"op": "hello", "tenant": NAME}``
    Bind the connection's default tenant.
``{"op": "submit", "id": N, "tenant": NAME, "at": T, "call": SPEC}``
    Submit one BLAS call arriving at virtual time ``T``.  ``call``
    reuses the ``repro analyze`` spec schema (``operation``, ``n``,
    ``k``, ``architecture``, ``m``, ``blades``) plus serve-only
    ``seed`` (operands are synthesized server-side from it) and
    ``priority``.  Every design runs at its own achievable clock, so
    ``clock_mhz`` is not a call field.  ``tenant`` may be omitted
    after a ``hello``.
``{"op": "drain"}``
    Execute everything admitted since the last drain as one epoch and
    return per-request results.
``{"op": "metrics"}``
    Cumulative service metrics (per-tenant block, live metrics
    registry snapshot, SLO verdict and flight-recorder stats
    included) — what ``repro top`` renders.
``{"op": "slo"}``
    The SLO monitor's machine-readable verdict alone (``null`` when
    the server was started without ``--slo-spec``).
``{"op": "shutdown"}``
    Acknowledge, then stop the server (used by CI and loadgen runs).

Responses
---------
``accepted`` / ``rejected`` (typed ``reason``) for submits; ``drained``
with a ``results`` array for drains; ``metrics``; ``error`` for
malformed input.  Reject reasons: the admission layer's
:data:`REJECT_INVALID`, :data:`REJECT_QUOTA`, :data:`REJECT_PENDING`,
the program verifier's :data:`REJECT_PROGRAM` (the reject carries the
first ``Diagnostic`` as ``{"rule", "message"}``), plus the runtime's
own ``queue_full`` / ``capacity_lost`` surfacing in drain results.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Mapping, Optional

PROTOCOL_VERSION = 1

#: Operations the service accepts: the paper's BLAS kernels plus
#: ``"cg"``, one conjugate-gradient descent step submitted as a
#: streaming :class:`repro.blas.program.BlasProgram` (spmxv → dot
#: with the matvec result streamed on-chassis).  For ``cg`` the
#: spec's ``n`` is the Poisson grid width and ``k`` the SpMXV
#: parallelism; ``m``/``blades``/``architecture`` do not apply.
OPERATIONS = ("dot", "gemv", "gemm", "spmxv", "cg")

#: The ``repro analyze`` design-spec fields serve accepts...
_ANALYZE_FIELDS = ("operation", "n", "k", "architecture", "m", "blades")
#: ...plus the serve-only additions.
CALL_FIELDS = frozenset(_ANALYZE_FIELDS) | {"seed", "priority"}

# -- typed reject reasons (admission layer) -----------------------------
REJECT_INVALID = "invalid_request"
REJECT_QUOTA = "quota_exhausted"
REJECT_PENDING = "tenant_queue_full"
#: A well-formed submission describing a program that fails static
#: verification (PRG001-007) — rejected before admission, carrying the
#: first diagnostic's rule id and message.
REJECT_PROGRAM = "invalid_program"


class ProtocolError(ValueError):
    """A message violated the wire schema."""


def encode(payload: Mapping[str, Any]) -> bytes:
    """One canonical JSON line (sorted keys, compact, ``\\n``-ended)."""
    return (json.dumps(payload, sort_keys=True,
                       separators=(",", ":")) + "\n").encode("utf-8")


def decode(line: "bytes | str") -> Dict[str, Any]:
    """Parse one line into a message object."""
    if isinstance(line, bytes):
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"not valid UTF-8: {exc}") from None
    try:
        message = json.loads(line)
    except ValueError as exc:
        # JSONDecodeError, or an integer literal longer than Python's
        # int-conversion digit limit.
        raise ProtocolError(f"not valid JSON: {exc}") from None
    except RecursionError:
        # A short line can nest deeper than the parser's stack.
        raise ProtocolError("JSON nested too deeply") from None
    if not isinstance(message, dict):
        raise ProtocolError("message must be a JSON object")
    return message


def validate_call(spec: Any) -> Dict[str, Any]:
    """Check a submit's ``call`` spec against the schema; returns the
    normalized spec (defaults left to the server) or raises
    :class:`ProtocolError`."""
    if not isinstance(spec, Mapping):
        raise ProtocolError("call must be a JSON object")
    unknown = set(spec) - CALL_FIELDS
    if unknown:
        raise ProtocolError(
            f"unknown call field(s): {sorted(unknown)}; "
            f"expected a subset of {sorted(CALL_FIELDS)}")
    operation = spec.get("operation")
    if operation not in OPERATIONS:
        raise ProtocolError(
            f"operation must be one of {OPERATIONS}, got {operation!r}")
    out: Dict[str, Any] = {"operation": operation}
    n = spec.get("n")
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ProtocolError("n must be a positive integer")
    out["n"] = n
    if operation == "cg":
        kernel_only = {"m", "blades", "architecture"} & set(spec)
        if kernel_only:
            raise ProtocolError(
                f"field(s) {sorted(kernel_only)} do not apply to a "
                "cg program submission")
    for field in ("k", "m", "blades"):
        value = spec.get(field)
        if value is None:
            continue
        if not isinstance(value, int) or isinstance(value, bool) \
                or value < 1:
            raise ProtocolError(
                f"{field} must be a positive integer (or omitted)")
        out[field] = value
    architecture = spec.get("architecture")
    if architecture is not None:
        if architecture not in ("tree", "column"):
            raise ProtocolError(
                "architecture must be 'tree' or 'column'")
        out["architecture"] = architecture
    seed = spec.get("seed")
    if seed is not None:
        if not isinstance(seed, int) or isinstance(seed, bool) \
                or seed < 0:
            raise ProtocolError("seed must be a non-negative integer")
        out["seed"] = seed
    priority = spec.get("priority")
    if priority is not None:
        if not isinstance(priority, int) or isinstance(priority, bool):
            raise ProtocolError("priority must be an integer")
        out["priority"] = priority
    return out


# -- response builders ---------------------------------------------------
def hello_ok(tenant: str) -> Dict[str, Any]:
    return {"ok": True, "type": "hello", "tenant": tenant,
            "protocol": PROTOCOL_VERSION}


def accepted(client_id: Optional[Any], seq: int) -> Dict[str, Any]:
    return {"ok": True, "type": "accepted", "id": client_id,
            "seq": seq}


def rejected(client_id: Optional[Any], reason: str, detail: str,
             diagnostic: Optional[Mapping[str, str]] = None,
             ) -> Dict[str, Any]:
    out: Dict[str, Any] = {"ok": False, "type": "rejected",
                           "id": client_id, "reason": reason,
                           "detail": detail}
    if diagnostic is not None:
        out["diagnostic"] = dict(diagnostic)
    return out


def drained(epoch: int, makespan_seconds: float,
            results: list) -> Dict[str, Any]:
    return {"ok": True, "type": "drained", "epoch": epoch,
            "makespan_seconds": makespan_seconds, "results": results}


def metrics_reply(payload: Mapping[str, Any]) -> Dict[str, Any]:
    return {"ok": True, "type": "metrics", "metrics": dict(payload)}


def slo_reply(verdict: Optional[Mapping[str, Any]]) -> Dict[str, Any]:
    return {"ok": True, "type": "slo",
            "slo": dict(verdict) if verdict is not None else None}


def shutdown_ok() -> Dict[str, Any]:
    return {"ok": True, "type": "shutdown"}


def error(detail: str) -> Dict[str, Any]:
    return {"ok": False, "type": "error", "detail": detail}
