"""Check reports shared by the verification sweeps and the CLI.

A report is a flat list of named checks with a pass flag and an optional
witness value.  Construction order is preserved, nothing depends on wall
clock or scheduling, and the JSON rendering is deterministic, so runs
with identical configuration produce byte-identical output.

The JSON rendering is byte-identical to ``json.dumps(obj, indent=2)``, which
stays the tests' oracle.  With an indent, CPython's json falls back to its
pure-Python encoder; ``_render`` writes the same bytes directly, escaping
strings with json's C function ``encode_basestring_ascii``, and a list of
strings in one join.  Values reports do not carry (floats, dicts with
non-``str`` keys) are handed to ``json.dumps`` itself and re-indented.

``VerifyReport.to_json`` and ``to_text`` are the one renderer of their
format.  Given a ``write`` function, each passes it the text in chunks,
the envelope, then one check at a time, then the counts, and returns
None, so neither a list of per-check texts nor the joined text is ever
built; without one, each returns the joined text.  Rendering starts only
after every check is computed: the CLI opens ``--output`` when it renders,
so a run that exits 2, 3 or 4 creates no file and prints nothing on
stdout, and an unwritable ``--output`` still exits 2 with the same message.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _quote
from typing import Callable, Iterable


# The one default bound on brute-force work: every budgeted entry point
# and the CLI take it unless given another.
DEFAULT_BUDGET = 10 ** 7


class BudgetExceeded(RuntimeError):
    """A brute-force enumeration would exceed the configured budget."""


def _render(obj, indent: str) -> str:
    """``json.dumps(obj, indent=2)`` for a value that starts on a line indented by indent.

    Exact because json escapes every newline inside a string: each newline
    of ``json.dumps`` output is structural, so the fallback re-indents it by
    prefixing indent to every line after the first.
    """
    if isinstance(obj, str):
        return _quote(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = indent + "  "
        sep = ",\n" + inner
        try:
            body = sep.join(map(_quote, obj))
        except TypeError:  # not all strings
            body = sep.join([_render(item, inner) for item in obj])
        return f"[\n{inner}{body}\n{indent}]"
    if isinstance(obj, dict) and all(isinstance(key, str) for key in obj):
        if not obj:
            return "{}"
        inner = indent + "  "
        sep = ",\n" + inner
        body = sep.join([f"{_quote(key)}: {_render(value, inner)}" for key, value in obj.items()])
        return f"{{\n{inner}{body}\n{indent}}}"
    return json.dumps(obj, indent=2).replace("\n", "\n" + indent)


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

    def to_json(self, write: Callable[[str], object] | None = None) -> str | None:
        """``json.dumps(self.to_json_dict(), indent=2)``, written without the dicts.

        Given write, passes it the text in chunks (the envelope, each check,
        the counts) and returns None; without, returns the joined text.
        """
        if write is None:
            chunks: list[str] = []
            self.to_json(chunks.append)
            return "".join(chunks)
        write(f'{{\n  "command": {_render(self.command, "  ")},'
              f'\n  "params": {_render(self.params, "  ")},\n  "checks": ')
        ind = " " * 6  # the indent of a check's fields
        opening, closing = "[\n    ", "[]"
        for c in self.checks:
            write(f'{opening}{{\n{ind}"id": {_render(c.id, ind)},'
                  f'\n{ind}"subject": {_render(c.subject, ind)},'
                  f'\n{ind}"pass": {_render(c.passed, ind)},'
                  f'\n{ind}"witness": {_render(c.witness, ind)}\n    }}')
            opening, closing = ",\n    ", "\n  ]"
        write(f'{closing},'
              f'\n  "passed": {self.passed},\n  "failed": {self.failed}\n}}')
        return None

    def to_text(self, write: Callable[[str], object] | None = None) -> str | None:
        """One ``[PASS]``/``[FAIL]`` line per check, then the counts; chunked as ``to_json``."""
        if write is None:
            chunks: list[str] = []
            self.to_text(chunks.append)
            return "".join(chunks)
        for c in self.checks:
            mark = "PASS" if c.passed else "FAIL"
            suffix = "" if c.witness is None else f"  {c.witness}"
            write(f"[{mark}] {c.id}: {c.subject}{suffix}\n")
        write(f"passed={self.passed} failed={self.failed}")
        return None
