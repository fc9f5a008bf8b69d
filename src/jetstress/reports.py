"""Check records, which ``scenarios.run_checks`` makes, and the run report the
CLI writes."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional


def relative_residual(residual: float, *terms: float) -> float:
    """``residual`` over the largest magnitude among the terms it balances,
    or over 1 when every term is smaller than 1."""
    return residual / max([1.0] + [abs(term) for term in terms])


@dataclass
class CheckRecord:
    """One verified identity: named terms, residual, tolerance, verdict."""

    check_id: str
    terms: Dict[str, float]
    residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return bool(self.residual <= self.tolerance)

    def to_json(self) -> str:
        payload = {
            "check": self.check_id,
            "terms": {k: float(v) for k, v in sorted(self.terms.items())},
            "residual": float(self.residual),
            "tolerance": float(self.tolerance),
            "pass": self.passed,
        }
        return json.dumps(payload, sort_keys=True, allow_nan=False)


@dataclass
class RunReport:
    """All records from one scenario run plus the overall verdict."""

    scenario_digest: str
    records: List[CheckRecord] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.records)

    def add(self, record: CheckRecord) -> None:
        self.records.append(record)

    def _ordered(self) -> List[CheckRecord]:
        return sorted(self.records, key=lambda r: r.check_id)

    def nonfinite(self) -> Optional[str]:
        """A keyed message naming the first value that is not a finite number:
        in report order, a record's terms by name, then its residual.  None
        when every value is finite."""
        for record in self._ordered():
            for name, value in sorted(record.terms.items()):
                if not math.isfinite(value):
                    return f"checks.{record.check_id}: term {name!r} is not finite"
            if not math.isfinite(record.residual):
                return f"checks.{record.check_id}: residual is not finite"
        return None

    def lines(self) -> List[str]:
        """One JSON line per record, then the summary; raises ``ValueError`` on
        a value that is not finite, as strict JSON has no spelling for it."""
        out = [r.to_json() for r in self._ordered()]
        summary = {
            "check": "summary",
            "scenario": self.scenario_digest,
            "records": len(self.records),
            "pass": self.passed,
        }
        out.append(json.dumps(summary, sort_keys=True, allow_nan=False))
        return out
