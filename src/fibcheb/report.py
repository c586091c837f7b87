"""Verification reports shared by the identity and integral verifiers.

A report carries the exact left- and right-hand values of one identity at one
parameter point, plus the exact residual.  Where a published closed form is
known to disagree with its parent result, the verifier computes the verbatim
form *and* the theorem-consistent correction; the report then carries both
residuals and is classified PaperErratum (printed form fails, corrected form
exact) rather than Pass or Fail.  Printed formulas are never silently fixed.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple


class Status(str, Enum):
    PASS = "Pass"
    FAIL = "Fail"
    PAPER_ERRATUM = "PaperErratum"
    # Printed formula cannot be compared at these parameters (an undefined
    # symbol, or an index pairing that only lines up on a diagonal).
    UNEVALUABLE = "Unevaluable"


class Check(NamedTuple):
    """One named sub-comparison inside a report (lhs, rhs, exact residual)."""

    name: str
    lhs: object
    rhs: object

    @property
    def residual(self):
        return self.lhs - self.rhs

    @property
    def ok(self) -> bool:
        return self.lhs == self.rhs


class Verdict(NamedTuple):
    """What a sweep keeps of one report: its identity, status value and record
    as the report prints it, or None where it prints none (a Pass, or an
    Unevaluable report in the text report).

    It is made of strings alone, so a pool worker sends it back without the
    report's exact values: the parent rebuilds no number or dict from one.
    """

    identity: str
    status: str
    record: str | None


class Report(NamedTuple):
    identity: str
    params: tuple[tuple[str, object], ...]
    status: Status
    lhs: object = None
    rhs: object = None
    checks: tuple[Check, ...] = ()
    printed_residual: object = None
    corrected_residual: object = None
    note: str = ""
    # "<Type>: <message>" of the exception a verifier raised instead of reporting
    error: str = ""

    @property
    def residual(self):
        """The exact lhs - rhs, or None for a report without an lhs."""
        return None if self.lhs is None else self.lhs - self.rhs

    def text_line(self) -> str:
        """The report's line in the text report, with its residuals and error if it has them."""
        params = ",".join(f"{k}={_display(v)}" for k, v in sorted(self.params))
        detail = ""
        if self.printed_residual is not None:
            corrected = "-" if self.corrected_residual is None else _display(self.corrected_residual)
            detail = f" printed_residual={_display(self.printed_residual)} corrected_residual={corrected}"
        if self.error:
            detail += f" error={self.error}"
        return f"{self.identity}({params}): {self.status.value}{detail}"

    def to_dict(self) -> dict:
        out = {
            "identity": self.identity,
            "params": {k: _display(v) for k, v in self.params},
            "status": self.status.value,
        }
        if self.lhs is not None:
            out["lhs"] = _display(self.lhs)
        if self.rhs is not None:
            out["rhs"] = _display(self.rhs)
        if self.residual is not None:
            out["residual"] = _display(self.residual)
        if self.checks:
            out["checks"] = [
                {
                    "name": c.name,
                    "lhs": _display(c.lhs),
                    "rhs": _display(c.rhs),
                    "residual": _display(c.residual),
                }
                for c in self.checks
            ]
        if self.printed_residual is not None:
            out["printed_residual"] = _display(self.printed_residual)
        if self.corrected_residual is not None:
            out["corrected_residual"] = _display(self.corrected_residual)
        if self.note:
            out["note"] = self.note
        if self.error:
            out["error"] = self.error
        return out


def _display(value) -> str:
    """Deterministic string form for report values of any scalar kind (a float by its repr)."""
    return value.to_text() if hasattr(value, "to_text") else str(value)


def make_report(
    identity: str,
    params: dict[str, object],
    checks: list[Check],
    *,
    printed_residual=None,
    corrected_residual=None,
    note: str = "",
    status: Status | None = None,
) -> Report:
    """Assemble a report from sub-checks with the standard status rules.

    All checks exact and no printed-form discrepancy: Pass.  A printed-form
    discrepancy whose corrected residual is exactly zero: PaperErratum.  Any
    other mismatch: Fail.  An explicit ``status`` overrides the rules (used
    for Unevaluable printed forms).
    """
    first_bad = next((c for c in checks if not c.ok), None)
    if status is None:
        if first_bad is not None:
            status = Status.FAIL
        elif printed_residual is None or printed_residual == 0:
            status = Status.PASS
        elif corrected_residual is not None and corrected_residual == 0:
            status = Status.PAPER_ERRATUM
        else:
            status = Status.FAIL
    head = first_bad if first_bad is not None else (checks[0] if checks else None)
    return Report(
        identity=identity,
        params=tuple(sorted(params.items())),
        status=status,
        lhs=head.lhs if head else None,
        rhs=head.rhs if head else None,
        checks=tuple(checks),
        printed_residual=printed_residual,
        corrected_residual=corrected_residual,
        note=note,
    )
