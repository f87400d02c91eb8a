"""The composite suite's library entry point."""

import pytest

from oligoperm.gset import SymBackend
from oligoperm.suite import run_suite


@pytest.mark.parametrize("bound", [1, 0, -1])
def test_run_suite_refuses_bound_below_two(bound):
    # at 1 the sym suite reported a false pre-Galois FAIL, at -1 an IndexError
    with pytest.raises(ValueError, match="bound >= 2"):
        run_suite(SymBackend(), bound)
