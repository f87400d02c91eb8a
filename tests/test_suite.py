"""The composite suite's library entry point."""

import pytest

from oligoperm import suite
from oligoperm.gset import SymBackend
from oligoperm.suite import run_suite


@pytest.mark.parametrize("bound", [1, 0, -1])
def test_run_suite_refuses_bound_below_two(bound):
    # at 1 the sym suite reported a false pre-Galois FAIL, at -1 an IndexError
    with pytest.raises(ValueError, match="bound >= 2"):
        run_suite(SymBackend(), bound)


def test_measure_classification_fails_on_an_irregular_verdict(monkeypatch):
    verdict = {"regular": False, "normal_within_bound": True}
    monkeypatch.setattr(suite, "classify_measure", lambda measure, bound: verdict)
    (result,) = [r for r in run_suite(SymBackend(), 2).results
                 if r.name == "measure-classification"]
    assert not result.passed
    assert result.witness == verdict
    assert result.note == "regular=False normal_within_bound=True"
