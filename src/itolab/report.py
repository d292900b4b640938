"""Check reports: measured sides, constants, provenance, pass/fail status."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, asdict

PASS = "pass"
FAIL = "fail"
REPORT_ONLY = "report-only"

EXPLICIT = "explicit"              # constant stated by the source result
CONFIGURED = "configured"          # user-supplied stand-in for an implicit constant
MEASURED = "measured-envelope"     # min/max of a measured ratio sweep

NOT_FINITE = "a side is not finite: no verdict"


def ratio(num: float, den: float) -> float:
    """A ``details`` ratio of two sides >= 0: 0/0 is 0, x/0 is inf, inf/inf NaN."""
    return num / den if den > 0 else (0.0 if num == 0 else math.inf)


@dataclass
class CheckReport:
    """Outcome of one inequality check.

    ``status == "pass"`` certifies lhs <= constant * rhs + tolerance (for the
    declared direction); report-only rows record a measured ratio without a
    verdict and never fail a run.  A NaN number in ``details`` is dropped
    and the row gets the ``NOT_FINITE`` note instead; so does a row with an
    infinite side.
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

    def __post_init__(self):
        kept = {k: v for k, v in self.details.items()
                if not (isinstance(v, float) and math.isnan(v))}
        if len(kept) < len(self.details) or math.inf in (abs(self.lhs), abs(self.rhs)):
            self.details = {**kept, "note": NOT_FINITE}

    def as_dict(self) -> dict:
        return asdict(self)
