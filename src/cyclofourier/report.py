"""Check reports shared by the verification sweeps and the CLI.

A report is a flat list of named checks with a pass flag and an optional
witness value.  Construction order is preserved, nothing depends on wall
clock or scheduling, and the JSON rendering is deterministic, so runs
with identical configuration produce byte-identical output.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable


# The one default bound on brute-force work: every budgeted entry point
# and the CLI take it unless given another.
DEFAULT_BUDGET = 10 ** 7


class BudgetExceeded(RuntimeError):
    """A brute-force enumeration would exceed the configured budget."""


@dataclass(frozen=True, slots=True)
class CheckEntry:
    id: str
    subject: str
    passed: bool
    witness: object = None

    def to_json(self) -> dict:
        return {"id": self.id, "subject": self.subject, "pass": self.passed,
                "witness": self.witness}


@dataclass(slots=True)
class VerifyReport:
    command: str
    params: dict
    checks: list[CheckEntry] = field(default_factory=list)

    def add(self, id: str, subject: str, passed: bool, witness: object = None) -> None:
        self.checks.append(CheckEntry(id, subject, bool(passed), witness))

    def extend(self, entries: Iterable[CheckEntry]) -> None:
        self.checks.extend(entries)

    @property
    def passed(self) -> int:
        return sum(1 for c in self.checks if c.passed)

    @property
    def failed(self) -> int:
        return sum(1 for c in self.checks if not c.passed)

    @property
    def all_passed(self) -> bool:
        return self.failed == 0

    def failures(self) -> list[CheckEntry]:
        return [c for c in self.checks if not c.passed]

    def to_json_dict(self) -> dict:
        return {
            "command": self.command,
            "params": self.params,
            "checks": [c.to_json() for c in self.checks],
            "passed": self.passed,
            "failed": self.failed,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)

    def to_text(self) -> str:
        lines = []
        for c in self.checks:
            mark = "PASS" if c.passed else "FAIL"
            suffix = "" if c.witness is None else f"  {c.witness}"
            lines.append(f"[{mark}] {c.id}: {c.subject}{suffix}")
        lines.append(f"passed={self.passed} failed={self.failed}")
        return "\n".join(lines)
