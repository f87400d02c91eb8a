"""Shared check-report structures.

Checkers return lists of CheckResult; a result is PASS or FAIL, and failures
carry a witness dictionary whose values are plain strings (canonical labels
and rendered scalars) so a failure is reproducible from the report alone.
"""

from __future__ import annotations

from typing import NamedTuple


class CheckResult(NamedTuple):
    """One check's verdict.  A result without a witness shares one empty
    dict as its default: no code mutates a witness once its result is
    built."""

    name: str
    passed: bool
    witness: dict = {}
    note: str = ""

    @property
    def status(self):
        return "PASS" if self.passed else "FAIL"

    def to_dict(self):
        out = {"check": self.name, "status": self.status}
        if self.note:
            out["note"] = self.note
        if self.witness:
            out["witness"] = self.witness
        return out


class Report(NamedTuple):
    title: str
    results: list

    @property
    def passed(self):
        return all(r.passed for r in self.results)

    def failures(self):
        return [r for r in self.results if not r.passed]

    def result(self, name):
        for r in self.results:
            if r.name == name:
                return r
        raise KeyError(name)
