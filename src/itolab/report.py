"""Check reports: measured sides, constants, provenance, pass/fail status."""

from __future__ import annotations

from dataclasses import dataclass, field, asdict

PASS = "pass"
FAIL = "fail"
REPORT_ONLY = "report-only"

EXPLICIT = "explicit"              # constant stated by the source result
CONFIGURED = "configured"          # user-supplied stand-in for an implicit constant
MEASURED = "measured-envelope"     # min/max of a measured ratio sweep


@dataclass
class CheckReport:
    """Outcome of one inequality check.

    ``status == "pass"`` certifies lhs <= constant * rhs + tolerance (for the
    declared direction); report-only rows record a measured ratio without a
    verdict and never fail a run.
    """

    check_id: str
    lhs: float
    rhs: float
    constant: float
    provenance: str
    status: str
    p: float | None = None
    q: float | None = None
    case_id: str = ""
    tolerance: float = 0.0
    seed: int | None = None
    runtime_ms: float = 0.0
    details: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return asdict(self)
