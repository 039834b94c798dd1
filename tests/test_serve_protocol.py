"""Wire-protocol tests: canonical encoding and schema validation."""

import pytest

from repro.serve import protocol


class TestEncoding:
    def test_canonical_one_line(self):
        line = protocol.encode({"b": 1, "a": {"z": 2, "y": 3}})
        assert line == b'{"a":{"y":3,"z":2},"b":1}\n'

    def test_round_trip(self):
        message = {"op": "submit", "id": 7,
                   "call": {"operation": "dot", "n": 64}}
        assert protocol.decode(protocol.encode(message)) == message

    def test_decode_accepts_str_and_bytes(self):
        assert protocol.decode('{"op":"drain"}') == {"op": "drain"}
        assert protocol.decode(b'{"op":"drain"}') == {"op": "drain"}

    def test_decode_rejects_garbage(self):
        with pytest.raises(protocol.ProtocolError, match="JSON"):
            protocol.decode(b"not json\n")
        with pytest.raises(protocol.ProtocolError, match="object"):
            protocol.decode(b"[1,2,3]\n")

    def test_decode_rejects_non_utf8_as_protocol_error(self):
        with pytest.raises(protocol.ProtocolError, match="UTF-8"):
            protocol.decode(b'{"op":"drain"}\xff\n')

    def test_decode_rejects_deep_nesting_as_protocol_error(self):
        # 200 KB, far under the stream limit, but deeper than the
        # parser's recursion limit: a typed error, not RecursionError.
        line = b"[" * 100_000 + b"]" * 100_000 + b"\n"
        with pytest.raises(protocol.ProtocolError, match="nested"):
            protocol.decode(line)

    def test_decode_rejects_integer_past_digit_limit(self):
        # Python refuses to convert an integer literal over 4300 digits:
        # a typed error, not a bare ValueError.
        line = b'{"at":' + b"1" * 5000 + b"}\n"
        with pytest.raises(protocol.ProtocolError, match="JSON"):
            protocol.decode(line)


class TestValidateCall:
    def test_minimal_spec(self):
        spec = protocol.validate_call({"operation": "dot", "n": 64})
        assert spec == {"operation": "dot", "n": 64}

    def test_full_spec_normalized(self):
        spec = protocol.validate_call({
            "operation": "gemm", "n": 32, "k": 8, "m": 16,
            "blades": 2, "architecture": "tree", "seed": 5,
            "priority": 1})
        assert spec["blades"] == 2
        assert spec["seed"] == 5

    def test_rejects_unknown_fields(self):
        # clock_mhz is unknown too: every design runs at its own clock.
        for field, value in (("matrix", [[1]]), ("clock_mhz", 140)):
            with pytest.raises(protocol.ProtocolError,
                               match=f"unknown call field.*{field}"):
                protocol.validate_call(
                    {"operation": "dot", "n": 8, field: value})

    def test_rejects_unknown_operation(self):
        with pytest.raises(protocol.ProtocolError, match="operation"):
            protocol.validate_call({"operation": "axpy", "n": 8})

    @pytest.mark.parametrize("n", [0, -1, 1.5, "64", True, None])
    def test_rejects_bad_n(self, n):
        with pytest.raises(protocol.ProtocolError):
            protocol.validate_call({"operation": "dot", "n": n})

    # clock_mhz is no longer a call field, so any value of it is rejected.
    @pytest.mark.parametrize("field,value", [
        ("k", 0), ("k", True), ("m", -2), ("blades", 0),
        ("architecture", "mesh"), ("clock_mhz", 0),
        ("clock_mhz", True), ("seed", -1), ("seed", 1.5),
        ("priority", "high"),
    ])
    def test_rejects_bad_optionals(self, field, value):
        with pytest.raises(protocol.ProtocolError):
            protocol.validate_call(
                {"operation": "dot", "n": 8, field: value})

    def test_cg_program_spec_accepted(self):
        spec = protocol.validate_call(
            {"operation": "cg", "n": 8, "k": 4, "seed": 3})
        assert spec == {"operation": "cg", "n": 8, "k": 4, "seed": 3}

    @pytest.mark.parametrize("field,value", [("m", 8), ("blades", 2),
                                             ("architecture", "tree")])
    def test_cg_rejects_kernel_only_fields(self, field, value):
        with pytest.raises(protocol.ProtocolError,
                           match="do not apply"):
            protocol.validate_call(
                {"operation": "cg", "n": 8, field: value})

    def test_not_an_object(self):
        with pytest.raises(protocol.ProtocolError, match="object"):
            protocol.validate_call([1, 2])


class TestResponses:
    def test_reject_reasons_are_distinct(self):
        reasons = {protocol.REJECT_INVALID, protocol.REJECT_QUOTA,
                   protocol.REJECT_PENDING, protocol.REJECT_PROGRAM}
        assert len(reasons) == 4
        assert protocol.REJECT_PROGRAM == "invalid_program"

    def test_builders_carry_type_and_ok(self):
        assert protocol.accepted(1, 2) == {
            "ok": True, "type": "accepted", "id": 1, "seq": 2}
        rejected = protocol.rejected(1, protocol.REJECT_QUOTA, "why")
        assert rejected["ok"] is False
        assert rejected["reason"] == protocol.REJECT_QUOTA
        assert protocol.error("boom")["ok"] is False

    def test_reject_without_diagnostic_omits_the_key(self):
        rejected = protocol.rejected(1, protocol.REJECT_QUOTA, "why")
        assert "diagnostic" not in rejected

    def test_reject_can_carry_a_diagnostic(self):
        diagnostic = {"rule": "PRG006", "message": "DRC006 (...)"}
        rejected = protocol.rejected(
            7, protocol.REJECT_PROGRAM,
            "program failed static verification",
            diagnostic=diagnostic)
        assert rejected["reason"] == "invalid_program"
        assert rejected["diagnostic"] == diagnostic
