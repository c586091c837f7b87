"""Verification reports shared by the identity and integral verifiers.

A report carries the exact left- and right-hand values of one identity at one
parameter point, plus the exact residual.  Where a published closed form is
known to disagree with its parent result, the verifier computes the verbatim
form *and* the theorem-consistent correction; the report then carries both
residuals and is classified PaperErratum (printed form fails, corrected form
exact) rather than Pass or Fail.  Printed formulas are never silently fixed.

A report prints each value by ``str()``, in two forms: ``text_line``, its
line in the text report, and ``json_record``, its record in a JSON report,
written straight from the fields.  ``to_dict`` is the reference dict form of
that record: ``json_record`` is the text ``json.dumps(indent=2,
sort_keys=True)`` gives for it.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

try:  # the C escaper that json.encoder uses, without loading the json package
    from _json import encode_basestring_ascii
except ImportError:
    from json.encoder import encode_basestring_ascii


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
        params = ",".join(f"{k}={v}" for k, v in sorted(self.params))
        detail = ""
        if self.printed_residual is not None:
            corrected = "-" if self.corrected_residual is None else self.corrected_residual
            detail = f" printed_residual={self.printed_residual} corrected_residual={corrected}"
        if self.error:
            detail += f" error={self.error}"
        return f"{self.identity}({params}): {self.status.value}{detail}"

    def to_dict(self) -> dict:
        """The record as a dict of strings: the reference form that ``json_record`` writes."""
        out = {
            "identity": self.identity,
            "params": {k: str(v) for k, v in self.params},
            "status": self.status.value,
        }
        if self.lhs is not None:
            out["lhs"] = str(self.lhs)
        if self.rhs is not None:
            out["rhs"] = str(self.rhs)
        if self.residual is not None:
            out["residual"] = str(self.residual)
        if self.checks:
            out["checks"] = [
                {
                    "name": c.name,
                    "lhs": str(c.lhs),
                    "rhs": str(c.rhs),
                    "residual": str(c.residual),
                }
                for c in self.checks
            ]
        if self.printed_residual is not None:
            out["printed_residual"] = str(self.printed_residual)
        if self.corrected_residual is not None:
            out["corrected_residual"] = str(self.corrected_residual)
        if self.note:
            out["note"] = self.note
        if self.error:
            out["error"] = self.error
        return out

    def json_record(self) -> str:
        """The record in a JSON sweep: ``runner._json_text(self.to_dict(), "    ")``,
        the text of ``json.dumps(indent=2, sort_keys=True)`` at the sweep's
        4-space indent, written straight from the fields.

        Each value is printed, and each residual taken, once: a head whose lhs
        and rhs are one check's objects (``make_report``'s) reuses its strings.
        """
        q = encode_basestring_ascii
        head = None
        fields = []  # '"key": value', in sorted key order
        if self.checks:
            items = []
            for c in self.checks:
                lhs, rhs, residual = texts = q(str(c.lhs)), q(str(c.rhs)), q(str(c.residual))
                if head is None and c.lhs is self.lhs and c.rhs is self.rhs:
                    head = texts
                items.append(
                    f'{{\n          "lhs": {lhs},\n          "name": {q(c.name)},'
                    f'\n          "residual": {residual},\n          "rhs": {rhs}\n        }}'
                )
            fields.append('"checks": [\n        ' + ",\n        ".join(items) + "\n      ]")
        if head is None:
            head = (
                None if self.lhs is None else q(str(self.lhs)),
                None if self.rhs is None else q(str(self.rhs)),
                None if self.lhs is None else q(str(self.residual)),
            )
        lhs, rhs, residual = head
        if self.corrected_residual is not None:
            fields.append(f'"corrected_residual": {q(str(self.corrected_residual))}')
        if self.error:
            fields.append(f'"error": {q(self.error)}')
        fields.append(f'"identity": {q(self.identity)}')
        if self.lhs is not None:
            fields.append(f'"lhs": {lhs}')
        if self.note:
            fields.append(f'"note": {q(self.note)}')
        params = {k: str(v) for k, v in self.params}
        if params:
            pairs = ",\n        ".join(f"{q(k)}: {q(v)}" for k, v in sorted(params.items()))
            fields.append(f'"params": {{\n        {pairs}\n      }}')
        else:
            fields.append('"params": {}')
        if self.printed_residual is not None:
            fields.append(f'"printed_residual": {q(str(self.printed_residual))}')
        if self.lhs is not None:
            fields.append(f'"residual": {residual}')
        if self.rhs is not None:
            fields.append(f'"rhs": {rhs}')
        fields.append(f'"status": {q(self.status.value)}')
        return "{\n      " + ",\n      ".join(fields) + "\n    }"


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
