"""The known-answer gate behind verdict_errors flags a wrong verdict.

    python3 -m pytest perfbench/tests
"""

import copy
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run  # noqa: E402

ANSWERS = json.loads(run.ANSWERS.read_text())


def suite_outcome(backend):
    return {"status": "PASS", "checks": list(ANSWERS[f"suite-{backend}"]["checks"]),
            "failures": []}


def measure_outcome(t, bound=4):
    degrees = list(range(bound + 1))
    return {
        "parameters": ["t"], "residual": [], "degrees": degrees,
        "values_at": {str(n): [str(run.falling(n, k)) for k in degrees]
                      for n in range(7)},
        "values_specialized": [str(run.falling(t, k)) for k in degrees],
        "axioms_status": "PASS", "axioms_checks": 117,
        "regular": False, "normal_within_bound": False,
    }


def cli_outcome(argv):
    want = ANSWERS["cli-mix"][" ".join(argv)]
    failures = [{"check": name, "witness": {}} for name in want["failing"]]
    if "witness_atom" in want:
        failures[0]["witness"]["atom"] = want["witness_atom"]
    return {"exit": want["exit"], "sha256": want["sha256"], "status": "",
            "checks": want["checks"], "failures": failures}


def test_recorded_counts_match_the_expected_verdicts():
    assert len(ANSWERS["suite-line"]["checks"]) == 33
    assert len(ANSWERS["suite-sym"]["checks"]) == 36
    assert ANSWERS["measure-sym"]["axioms_checks"] == 117
    calls = ANSWERS["cli-mix"]
    assert set(calls) == {" ".join(argv) for argv in run.CLI_CALLS}
    for group in ("S3", "S4"):
        assert calls[f"suite --backend finite --group {group} --bound 6"]["checks"] == 28
    pregalois = calls["pregalois --backend sym --bound 3"]
    assert (pregalois["exit"], pregalois["witness_atom"]) == (1, "sym:inj[2]")
    assert all(c["exit"] == 0 for k, c in calls.items()
               if k != "pregalois --backend sym --bound 3")


def test_right_verdicts_pass():
    for backend in ("line", "sym"):
        spec = {"kind": "suite", "backend": backend, "bound": 3}
        assert run.check_unit(spec, suite_outcome(backend), ANSWERS) == []
    for t in run.MEASURE_TS:
        spec = {"kind": "measure", "backend": "sym", "bound": 4, "t": t}
        assert run.check_unit(spec, measure_outcome(t), ANSWERS) == []
    for argv in run.CLI_CALLS:
        spec = {"kind": "cli", "argv": argv}
        assert run.check_unit(spec, cli_outcome(argv), ANSWERS) == []


def test_a_wrong_expected_answer_is_an_error():
    spec = {"kind": "suite", "backend": "line", "bound": 3}
    wrong = copy.deepcopy(ANSWERS)
    wrong["suite-line"]["checks"].pop()
    assert run.check_unit(spec, suite_outcome("line"), wrong)

    spec = {"kind": "measure", "backend": "sym", "bound": 4, "t": 2}
    wrong = copy.deepcopy(ANSWERS)
    wrong["measure-sym"]["normal_within_bound (regression)"]["2"] = True
    assert run.check_unit(spec, measure_outcome(2), wrong)

    argv = run.CLI_CALLS[0]
    wrong = copy.deepcopy(ANSWERS)
    wrong["cli-mix"][" ".join(argv)]["sha256"] = "0" * 64
    assert run.check_unit({"kind": "cli", "argv": argv}, cli_outcome(argv), wrong)


def test_a_wrong_verdict_is_an_error():
    spec = {"kind": "measure", "backend": "sym", "bound": 4, "t": 3}
    outcome = measure_outcome(3)
    outcome["values_at"]["5"][2] = "21"  # 5 * 4 = 20
    assert run.check_unit(spec, outcome, ANSWERS)
    outcome = measure_outcome(3)
    outcome["regular"] = True  # t(t-1)(t-2)(t-3) vanishes at t = 3
    assert run.check_unit(spec, outcome, ANSWERS)

    argv = ["pregalois", "--backend", "sym", "--bound", "3"]
    outcome = cli_outcome(argv)
    outcome["failures"][0]["witness"]["atom"] = "sym:inj[3]"
    assert run.check_unit({"kind": "cli", "argv": argv}, outcome, ANSWERS)
