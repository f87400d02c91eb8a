"""Shared check-report structures.

Checkers return lists of CheckResult; a result is PASS or FAIL, and failures
carry a witness dictionary whose values are plain strings (canonical labels
and rendered scalars) so a failure is reproducible from the report alone.

A check over many instances reports through ``verdict``: it collects one
entry per failing instance, in the order it visits them, each naming its
instance (atoms by ``render()``, atom maps by their ``data``).  Its witness
is the first failing instance with, under a ``failing-<what>`` key, how
many instances failed.
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


def verdict(name, failures, counted, note=""):
    """A check that passes when failures is empty; otherwise its witness is
    the first failure with the number of failures under
    ``failing-<counted>``."""
    witness = {}
    if failures:
        witness = dict(failures[0])
        witness[f"failing-{counted}"] = str(len(failures))
    return CheckResult(name, not failures, witness, note=note)


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
