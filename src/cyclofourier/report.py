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
from collections.abc import Callable, Iterable
from json.encoder import encode_basestring_ascii as _quote


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


class _Value:
    """Base of the value types: a value is its ``_fields``, a tuple of slot names.

    ``__eq__`` holds for the exact same class with equal keys, ``__hash__``
    hashes the key and ``__repr__`` is ``Name(field=value, ...)``.  There is
    no default ``_fields``: a class that forgets it fails at its first
    comparison instead of making all its values equal.
    """

    __slots__ = ()

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__name__}({fields})"


class _Frozen(_Value):
    """Base of the immutable value types: ``__init__`` sets each slot once
    through ``object.__setattr__``, and any later assignment or deletion
    raises AttributeError, because their hashes key ``lru_cache`` and dicts."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class CheckEntry(_Frozen):
    __slots__ = _fields = ("id", "subject", "passed", "witness")

    def __init__(self, id: str, subject: str, passed: bool, witness: object = None):
        object.__setattr__(self, "id", id)
        object.__setattr__(self, "subject", subject)
        object.__setattr__(self, "passed", passed)
        object.__setattr__(self, "witness", witness)

    def to_json(self) -> dict:
        return {"id": self.id, "subject": self.subject, "pass": self.passed,
                "witness": self.witness}


class VerifyReport(_Value):
    """A mutable builder: checks are appended as they are computed."""

    __slots__ = _fields = ("command", "params", "checks")
    __hash__ = None

    def __init__(self, command: str, params: dict, checks: list[CheckEntry] | None = None):
        self.command = command
        self.params = params
        self.checks = [] if checks is None else checks

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
