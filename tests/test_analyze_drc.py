"""Design-rule checker tests: every rule has a passing and a
violating design, pinned to the paper's constants (α = 14, Table 1/2/4
budgets), plus the golden JSON shape of a diagnostic."""

import json

import pytest

from repro.analyze import (
    DRC_RULES,
    AnalysisReport,
    Baseline,
    DesignUnderCheck,
    Severity,
    XD1_PLATFORM,
    check_design,
    check_specs,
    get_platform,
    shipped_designs,
)


def rules_fired(report, severity=None):
    return {d.rule for d in report
            if severity is None or d.severity is severity}


def check(platform="xd1", **fields):
    return check_design(DesignUnderCheck(**fields), platform)


class TestRuleCatalog:
    def test_all_ten_rules_registered(self):
        assert sorted(DRC_RULES) == ([f"DRC00{i}" for i in range(1, 10)]
                                     + ["DRC010"])

    def test_every_rule_has_a_citation(self):
        for rule in DRC_RULES.values():
            assert rule.citation


class TestDrc001ReductionBuffer:
    """Theorem 1: the reduction circuit needs 2α² buffer slots."""

    def test_paper_buffer_passes(self):
        report = check(operation="dot", n=2048, k=2, buffer_words=392)
        assert "DRC001" not in rules_fired(report)

    def test_underprovisioned_buffer_fails(self):
        report = check(operation="dot", n=256, k=2, buffer_words=300)
        [diag] = [d for d in report if d.rule == "DRC001"]
        assert diag.severity is Severity.ERROR
        assert diag.data["required_words"] == 2 * 14 * 14 == 392
        assert diag.data["provided_words"] == 300
        assert "Theorem 1" in diag.citation

    def test_row_major_gemv_uses_reduction_circuit(self):
        report = check(operation="gemv", n=512, k=4,
                       architecture="tree", buffer_words=100)
        assert "DRC001" in rules_fired(report)

    def test_column_major_gemv_does_not(self):
        report = check(operation="gemv", n=512, k=4,
                       architecture="column", buffer_words=100)
        assert "DRC001" not in rules_fired(report)


class TestDrc002ColumnMvmHazard:
    """Section 4.2: column-major MVM is hazard-free iff n/k > α."""

    def test_deep_column_passes(self):
        report = check(operation="gemv", n=512, k=4,
                       architecture="column")
        assert "DRC002" not in rules_fired(report)

    def test_shallow_column_fails(self):
        # n/k = 12 ≤ α = 14: a y element re-enters the adder early.
        report = check(operation="gemv", n=48, k=4,
                       architecture="column")
        [diag] = [d for d in report if d.rule == "DRC002"]
        assert diag.severity is Severity.ERROR
        assert diag.data == {"n": 48, "k": 4, "alpha": 14}

    def test_boundary_is_strict(self):
        # n/k == α exactly is still a hazard (must *exceed* α).
        report = check(operation="gemv", n=14 * 4, k=4,
                       architecture="column")
        assert "DRC002" in rules_fired(report)
        report = check(operation="gemv", n=15 * 4, k=4,
                       architecture="column")
        assert "DRC002" not in rules_fired(report)


class TestDrc003Geometry:
    def test_paper_gemm_passes(self):
        report = check(operation="gemm", n=512, k=8, m=8)
        assert "DRC003" not in rules_fired(report)

    def test_m_not_multiple_of_k(self):
        report = check(operation="gemm", n=96, k=8, m=12)
        [diag] = [d for d in report if d.rule == "DRC003"]
        assert diag.severity is Severity.ERROR
        assert "not a multiple of k" in diag.message

    def test_k_exceeds_m(self):
        report = check(operation="gemm", n=512, k=16, m=8)
        assert "DRC003" in rules_fired(report, Severity.ERROR)

    def test_gang_on_non_gemm(self):
        report = check(operation="dot", n=1024, k=2, blades=4)
        [diag] = [d for d in report if d.rule == "DRC003"]
        assert "gangs exist only for gemm" in diag.message

    def test_padding_is_a_warning_not_error(self):
        report = check(operation="gemm", n=500, k=4, m=16)
        [diag] = [d for d in report if d.rule == "DRC003"]
        assert diag.severity is Severity.WARNING
        assert diag.data["padded"] == 512


class TestDrc004Storage:
    def test_paper_block_fits(self):
        # 2m² = 128 words ≪ the XC2VP50's on-chip budget.
        report = check(operation="gemm", n=512, k=8, m=8)
        assert "DRC004" not in rules_fired(report)

    def test_oversized_block_fails(self):
        # 2·256² = 131072 > 66816 words (XC2VP50 BRAM, Table 4 device).
        report = check(operation="gemm", n=256, k=8, m=256)
        diags = [d for d in report if d.rule == "DRC004"]
        assert diags and all(d.severity is Severity.ERROR
                             for d in diags)
        assert any(d.data.get("storage_words") == 131072 for d in diags)

    def test_long_vector_warns(self):
        report = check(operation="dot", n=100_000, k=2)
        [diag] = [d for d in report if d.rule == "DRC004"]
        assert diag.severity is Severity.WARNING
        assert "block decomposition" in diag.message


class TestDrc005MmHazard:
    def test_large_block_passes(self):
        # m²/k = 32 > α = 14.
        report = check(operation="gemm", n=512, k=8, m=16)
        assert "DRC005" not in rules_fired(report)

    def test_small_block_standalone_fails(self):
        # The paper's own k = m = 8 point: m²/k = 8 ≤ 14.
        report = check(operation="gemm", n=64, k=8, m=8)
        [diag] = [d for d in report if d.rule == "DRC005"]
        assert diag.severity is Severity.ERROR
        assert diag.data == {"m": 8, "k": 8, "alpha": 14}

    def test_gang_waives_to_info(self):
        # Hierarchical interleave (Section 6.3 discrepancy): the same
        # geometry inside a gang is legitimate, and only informs.
        report = check(operation="gemm", n=512, k=8, m=8, blades=6)
        [diag] = [d for d in report if d.rule == "DRC005"]
        assert diag.severity is Severity.INFO
        assert report.ok


class TestDrc006Bandwidth:
    def test_paper_dot_fits(self):
        report = check(operation="dot", n=2048, k=2)
        assert "DRC006" not in rules_fired(report)

    def test_wide_stream_exceeds_sram(self):
        # k = 6 words/cycle > the XD1 SRAM path at the closed clock.
        report = check(operation="dot", n=4096, k=6)
        [diag] = [d for d in report if d.rule == "DRC006"]
        assert diag.severity is Severity.ERROR
        assert diag.data["required"] == 6.0

    def test_src_clock_cap_rescues_bandwidth(self):
        # At 170 MHz the SRC SRAM path cannot feed k = 4; the MAP's
        # 100 MHz user-clock cap is what makes the design feasible.
        report = check(operation="gemv", n=512, k=4, platform="src")
        assert "DRC006" not in rules_fired(report)
        src = get_platform("src")
        assert src.max_clock_mhz == 100.0
        assert src.sram_words_per_cycle(170.0) < 4.0
        assert src.sram_words_per_cycle(100.0) >= 4.0


class TestDrc007AreaClock:
    def test_paper_point_closes(self):
        report = check(operation="gemm", n=512, k=8, m=8)
        assert "DRC007" not in rules_fired(report)

    def test_too_many_pes_has_no_placement(self):
        # The XD1 shell leaves room for at most 8 MM PEs (Section 6).
        report = check(operation="gemm", n=512, k=10)
        diags = [d for d in report if d.rule == "DRC007"]
        assert diags and diags[0].severity is Severity.ERROR
        assert "no feasible placement" in diags[0].message

    def test_overclocked_request_fails(self):
        report = check(operation="dot", n=1024, k=2, clock_mhz=250.0)
        [diag] = [d for d in report if d.rule == "DRC007"]
        assert diag.data["requested_mhz"] == 250.0


class TestDrc008Gang:
    def test_chassis_gang_passes(self):
        report = check(operation="gemm", n=512, k=8, m=8, blades=6)
        assert "DRC008" not in rules_fired(report)

    def test_gang_wider_than_chassis_spans(self):
        # 8 > the XD1's 6 blades/chassis: spans two chassis over
        # RapidArray — a warning, no longer an error.
        report = check(operation="gemm", n=512, k=8, m=8, blades=8)
        [diag] = [d for d in report if d.rule == "DRC008"]
        assert diag.severity is Severity.WARNING
        assert diag.data["blades_per_chassis"] == 6
        assert diag.data["chassis"] == 2

    def test_gang_wider_than_machine(self):
        # 80 > the XD1's 12 × 6 = 72 blades: nowhere to seat it.
        report = check(operation="gemm", n=2048, k=8, m=8, blades=80)
        diags = [d for d in report if d.rule == "DRC008"
                 and d.severity is Severity.ERROR]
        assert diags and diags[0].data["total_blades"] == 72

    def test_gang_wider_than_block_columns(self):
        # b/m = 4 block-columns cannot feed l = 6 FPGAs.
        report = check(operation="gemm", n=128, k=8, m=32, blades=6)
        [diag] = [d for d in report if d.rule == "DRC008"]
        assert diag.data["block_columns"] == 4


class TestDrc010InterChassis:
    def test_single_chassis_gang_is_silent(self):
        report = check(operation="gemm", n=512, k=8, m=8, blades=6)
        assert "DRC010" not in rules_fired(report)

    def test_paper_configuration_passes(self):
        # 12 chassis, b = 2048: 3·8·72/2048 = 0.84 words/cycle fits
        # the 2.0 the RapidArray link sustains (Section 6.4).
        report = check(operation="gemm", n=2048, k=8, m=8, blades=72)
        assert "DRC010" not in rules_fired(report,
                                           severity=Severity.ERROR)

    def test_small_b_overdrives_the_link(self):
        # 3·8·12/128 = 2.25 > 2.0 words/cycle.
        report = check(operation="gemm", n=128, k=8, m=8, blades=12)
        diags = [d for d in report if d.rule == "DRC010"]
        assert diags and diags[0].severity is Severity.ERROR
        assert diags[0].data["required"] == pytest.approx(2.25)


class TestDrc009FastForward:
    """Large cycle-stepped designs get an INFO pointer at the proven
    fast path; small ones and the already-analytic single-blade MM
    stay silent."""

    def test_small_dot_is_silent(self):
        report = check(operation="dot", n=2048, k=2)
        assert "DRC009" not in rules_fired(report)

    def test_large_dot_fires_info(self):
        report = check(operation="dot", n=400_000, k=2)
        [diag] = [d for d in report if d.rule == "DRC009"]
        assert diag.severity is Severity.INFO
        assert diag.data["estimated_events"] == 200_000
        assert "--sim-mode fast" in diag.message
        assert report.ok  # INFO never fails the check

    def test_large_gemv_fires_info(self):
        report = check(operation="gemv", n=1024, k=4)
        [diag] = [d for d in report if d.rule == "DRC009"]
        assert diag.data["estimated_events"] == 1024 * 256

    def test_single_blade_gemm_never_fires(self):
        # The PE-array cycle model is already analytic: fast mode
        # adds nothing, so the note would be noise.
        report = check(operation="gemm", n=4096, k=8, m=64)
        assert "DRC009" not in rules_fired(report)

    def test_gang_gemm_fires_on_block_count(self):
        report = check(operation="gemm", n=1024, k=8, m=8, blades=6)
        [diag] = [d for d in report if d.rule == "DRC009"]
        assert diag.data["estimated_events"] == (1024 // 8) ** 3


class TestEntryPoints:
    def test_shipped_catalog_is_clean_on_xd1(self):
        for design in shipped_designs():
            report = check_design(design, XD1_PLATFORM)
            assert report.ok, report.summary()

    def test_spec_round_trip(self):
        report = check_specs([
            {"operation": "dot", "n": 256, "k": 2,
             "buffer_words": 300}])
        assert rules_fired(report) == {"DRC001"}

    def test_spec_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown design-spec"):
            check_specs([{"operation": "dot", "n": 8, "k": 2,
                          "blokes": 3}])

    def test_spec_requires_core_fields(self):
        with pytest.raises(ValueError, match="at least operation"):
            check_specs([{"operation": "dot"}])


class TestGoldenJson:
    """The machine-readable output is a stable contract for CI."""

    GOLDEN = {
        "rule": "DRC001",
        "severity": "error",
        "subject": "dot(n=256,k=2)",
        "message": "reduction buffer of 300 words is below the "
                   "2α² = 392 bound for α = 14",
        "citation": "Theorem 1, Section 4.1",
        "hint": "provision 2α² words (two α² banks) "
                "or use a shallower adder",
        "data": {"alpha": 14, "provided_words": 300,
                 "required_words": 392},
        "fingerprint": "2132610d3a656309",
    }

    def report(self):
        return check(operation="dot", n=256, k=2, buffer_words=300)

    def test_diagnostic_dict(self):
        payload = self.report().to_dict()
        assert payload["schema"] == "repro.analyze/1"
        assert payload["counts"] == {"errors": 1, "warnings": 0,
                                     "info": 0, "suppressed": 0}
        assert payload["diagnostics"] == [self.GOLDEN]

    def test_json_is_deterministic(self):
        assert self.report().to_json() == self.report().to_json()
        assert json.loads(self.report().to_json()) \
            == self.report().to_dict()

    def test_baseline_round_trip(self, tmp_path):
        report = self.report()
        path = tmp_path / "baseline.json"
        Baseline.from_report(report).save(path, report)
        survived = report.apply_baseline(Baseline.load(path))
        assert len(survived) == 0
        assert survived.suppressed == 1

    def test_fingerprint_ignores_line_numbers(self):
        a = AnalysisReport([d for d in self.report()])
        assert all(d.fingerprint == self.GOLDEN["fingerprint"]
                   for d in a)
