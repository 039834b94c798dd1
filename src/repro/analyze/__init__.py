"""``repro.analyze`` — static analysis for designs, programs, source.

Three layers share one diagnostics format (:mod:`.diagnostics`):

* the **design-rule checker** (:mod:`.drc`) statically enforces the
  paper's hardware invariants — reduction-buffer bound, MVM hazard
  condition, storage/bandwidth/area budgets, gang preconditions — on
  any :class:`DesignUnderCheck` or JSON design spec;
* the **program verifier** (:mod:`.program`) checks whole streaming
  :class:`repro.blas.program.BlasProgram` DAGs — shape inference
  along edges, streamed-link bandwidth, illegal edge classes, feed()
  re-entry safety, per-node DRC delegation — before anything runs;
* the **lint pass** (:mod:`.lint`) enforces the repo's determinism and
  numerics rules (no wall-clock, no unseeded randomness, isfinite
  guards on residual comparisons, no mutable defaults, no float
  equality) over the source tree, including the interprocedural
  taint (LINT006) and await-epoch (LINT007) rules.

``repro analyze`` runs all three.  Serve admission runs the program
verifier on each program submission, and
:meth:`repro.blas.program.BlasProgram.check` (which runtime admission
calls) raises :class:`DesignRuleError` on violations.
"""

from repro.analyze.catalog import shipped_designs, shipped_programs
from repro.analyze.diagnostics import (
    EXIT_CRASH,
    EXIT_OK,
    EXIT_VIOLATIONS,
    AnalysisReport,
    Baseline,
    Diagnostic,
    Severity,
)
from repro.analyze.drc import (
    DRC_RULES,
    DesignRuleError,
    DesignUnderCheck,
    check_design,
    check_specs,
)
from repro.analyze.lint import (
    LINT_RULES,
    lint_paths,
    lint_source,
)
from repro.analyze.program import (
    PRG_RULES,
    ProgramUnderCheck,
    check_program,
    check_program_spec,
    check_program_specs,
)
from repro.analyze.platform import (
    PLATFORMS,
    PlatformModel,
    SRC_PLATFORM,
    XD1_PLATFORM,
    get_platform,
)

__all__ = [
    "AnalysisReport",
    "Baseline",
    "Diagnostic",
    "Severity",
    "EXIT_OK",
    "EXIT_VIOLATIONS",
    "EXIT_CRASH",
    "DRC_RULES",
    "PRG_RULES",
    "LINT_RULES",
    "DesignRuleError",
    "DesignUnderCheck",
    "ProgramUnderCheck",
    "check_design",
    "check_program",
    "check_program_spec",
    "check_program_specs",
    "check_specs",
    "lint_paths",
    "lint_source",
    "shipped_designs",
    "shipped_programs",
    "PLATFORMS",
    "PlatformModel",
    "XD1_PLATFORM",
    "SRC_PLATFORM",
    "get_platform",
]
