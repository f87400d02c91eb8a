"""CLI surface: exit codes, deterministic JSON, file formats."""

import hashlib
import json
import time

import pytest

from oligoperm.cli import main


def run(tmp_path, *argv):
    out = tmp_path / "report.json"
    code = main([*argv, "--json", str(out)])
    doc = json.loads(out.read_text(encoding="utf-8")) if out.exists() else None
    return code, doc


def test_atoms(tmp_path):
    code, doc = run(tmp_path, "atoms", "--backend", "sym", "--bound", "2")
    assert code == 0
    assert doc["payload"]["atoms"] == ["sym:inj[0]", "sym:inj[1]", "sym:inj[2]"]


def test_measure_solve_sym(tmp_path):
    code, doc = run(tmp_path, "measure", "solve", "--backend", "sym",
                    "--bound", "4")
    assert code == 0
    assert doc["payload"]["family_params"] == ["t"]
    assert doc["payload"]["residual"] == []
    assert doc["payload"]["values"][2] == "t^2 - t"


def test_measure_solve_deterministic(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    main(["measure", "solve", "--backend", "line", "--bound", "4",
          "--json", str(out1)])
    main(["measure", "solve", "--backend", "line", "--bound", "4",
          "--json", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()


def _sym_fibers(depth):
    # the product identities at bound b reach atoms of arity 2b, so a spec
    # table needs fiber classes out to depth 2b - 1
    return {f"omega-minus[{c}]": f"t - {c}" if c else "t" for c in range(depth)}


def test_measure_check_spec_file(tmp_path):
    spec = tmp_path / "measure.json"
    spec.write_text(json.dumps({
        "backend": "sym",
        "field": "qt",
        "atoms": {"sym:inj[0]": "1", "sym:inj[1]": "t"},
        "fibers": _sym_fibers(6),
    }), encoding="utf-8")
    code, doc = run(tmp_path, "measure", "check", "--spec", str(spec),
                    "--bound", "3")
    assert code == 0 and doc["status"] == "PASS"


def test_measure_check_rejects_perturbed(tmp_path):
    spec = tmp_path / "measure.json"
    fibers = _sym_fibers(4)
    doc_in = {
        "backend": "sym",
        "field": "qt",
        "atoms": {"sym:inj[0]": "1", "sym:inj[1]": "t",
                  "sym:inj[2]": "t^2 - t + 1"},
        "fibers": fibers,
    }
    spec.write_text(json.dumps(doc_in), encoding="utf-8")
    code, doc = run(tmp_path, "measure", "check", "--spec", str(spec),
                    "--bound", "2")
    assert code == 1 and doc["status"] == "FAIL"


def test_pregalois_sym_fails_with_swap_witness(tmp_path):
    code, doc = run(tmp_path, "pregalois", "--backend", "sym", "--bound", "3")
    assert code == 1
    failing = [r for r in doc["results"] if r["status"] == "FAIL"]
    assert len(failing) == 1
    assert failing[0]["check"] == "h-effective-equivalence-relations"
    assert failing[0]["witness"]["atom"] == "sym:inj[2]"
    assert "[1>2,2>1]" in failing[0]["witness"]["relation-orbits"]


def test_pregalois_finite_passes(tmp_path):
    code, doc = run(tmp_path, "pregalois", "--backend", "finite",
                    "--group", "S3", "--bound", "6")
    assert code == 0


def test_homdim(tmp_path):
    code, doc = run(tmp_path, "homdim", "--X", "line:inc[2]",
                    "--Y", "line:inc[2]")
    assert code == 0 and doc["payload"]["dim"] == 13


def test_dim(tmp_path):
    code, doc = run(tmp_path, "dim", "--X", "sym:inj[1]", "--field", "qt")
    assert code == 0 and doc["payload"]["dim"] == "t"
    code, doc = run(tmp_path, "dim", "--X", "line:inc[1]")
    assert code == 0 and doc["payload"]["dim"] == "-1"


def test_compose_files(tmp_path):
    e_neq = {"backend": "sym", "field": "qt", "source": "sym:inj[1]",
             "target": "sym:inj[1]", "entries": [[0, 0, "[]", "1"]]}
    lhs = tmp_path / "lhs.json"
    rhs = tmp_path / "rhs.json"
    lhs.write_text(json.dumps(e_neq), encoding="utf-8")
    rhs.write_text(json.dumps(e_neq), encoding="utf-8")
    code, doc = run(tmp_path, "compose", "--lhs", str(lhs), "--rhs", str(rhs),
                    "--field", "qt")
    assert code == 0
    entries = {tuple(e[:3]): e[3] for e in doc["payload"]["entries"]}
    assert entries[(0, 0, "[]")] == "t - 2"
    assert entries[(0, 0, "[1>1]")] == "t - 1"


def test_frob_verify(tmp_path):
    code, doc = run(tmp_path, "frob", "verify", "--X", "sym:inj[2]",
                    "--field", "qt", "--bound", "3")
    assert code == 0 and doc["status"] == "PASS"


def test_frob_eidem_presets(tmp_path):
    for gamma in ("diagonal", "all-ones"):
        code, doc = run(tmp_path, "frob", "eidem", "--B", "sym:inj[2]",
                        "--gamma", gamma, "--field", "qt")
        assert code == 0


def test_frob_eidem_file(tmp_path):
    gamma = tmp_path / "gamma.json"
    gamma.write_text(json.dumps({
        "entries": [[0, 0, "[1>1,2>2]", "1"], [0, 0, "[1>1]", "1"]],
    }), encoding="utf-8")
    code, doc = run(tmp_path, "frob", "eidem", "--B", "sym:inj[2]",
                    "--gamma", str(gamma), "--field", "qt")
    assert code == 0


def test_frob_eidem_reports_triple_coherence_witness(tmp_path):
    # agreeing in coordinate 1 or in coordinate 2 is not transitive
    gamma = tmp_path / "gamma.json"
    gamma.write_text(json.dumps({
        "entries": [[0, 0, label, "1"]
                    for label in ("[1>1,2>2]", "[1>1]", "[2>2]")],
    }), encoding="utf-8")
    code, doc = run(tmp_path, "frob", "eidem", "--B", "sym:inj[2]",
                    "--gamma", str(gamma), "--field", "qt")
    assert code == 1
    failing = [r for r in doc["results"] if r["status"] == "FAIL"]
    assert [r["check"] for r in failing] == ["triple-coherence"]
    assert sorted(failing[0]["witness"]) == [
        "atom", "gamma-12", "gamma-13", "gamma-23",
        "orbit-12", "orbit-13", "orbit-23"]


ASYMMETRIC_GAMMA = [[0, 0, "B", "1"], [0, 0, "LR", "1"]]


def test_gamma_file_zero_entry_is_no_entry(tmp_path):
    """An explicit zero in a --gamma file is dropped as it is read: the report
    is the one of the file without it, byte for byte, and its FAIL names
    the entry where gamma is not symmetric with both sides."""
    gamma = tmp_path / "gamma.json"
    argv = ["frob", "eidem", "--B", "line:inc[1]", "--gamma", str(gamma)]
    reports = []
    for entries in (ASYMMETRIC_GAMMA, [*ASYMMETRIC_GAMMA, [0, 0, "RL", "0"]]):
        gamma.write_text(json.dumps({"entries": entries}), encoding="utf-8")
        code, doc = run(tmp_path, *argv)
        assert code == 1
        reports.append((tmp_path / "report.json").read_bytes())
    assert reports[0] == reports[1]
    failing = {r["check"]: r.get("witness") for r in doc["results"]
               if r["status"] == "FAIL"}
    # position 1 of line:inc[1] x line:inc[1] is the orbit LR, on inc[2]
    assert failing["symmetric"] == {"position": "1", "atom": "line:inc[2]",
                                    "lhs": "0", "rhs": "1"}


@pytest.mark.parametrize("argv", [
    ["frob", "verify", "--X", "sym:0"],
    ["frob", "eidem", "--B", "sym:0", "--gamma", "diagonal"],
    ["frob", "verify", "--X", "line:0"]],
    ids=["verify", "eidem", "verify-line"])
def test_object_with_no_atom_is_usage_error(capsys, tmp_path, argv):
    """Every frob check runs over the atoms of its object: with none each
    would PASS over nothing.  dim and homdim keep X:0, where 0 is a value."""
    assert main(argv) == 2
    flag, text = argv[2:4]
    assert capsys.readouterr().err.splitlines() == [
        f"usage error: {flag} {text} has no atom to check"]
    code, doc = run(tmp_path, "dim", "--X", "sym:0")
    assert code == 0 and doc["payload"]["dim"] == "0"


@pytest.mark.parametrize("command", ["compose", "eidem"])
def test_repeated_entry_key_is_usage_error(tmp_path, capsys, command):
    """A key that repeats would keep only its last value: the file is
    refused, naming the entry."""
    entries = [[0, 0, "B", "1"], [0, 0, "B", "2"]]
    if command == "compose":
        path = write_json(tmp_path, "m.json", {**LINE_IDENTITY, "field": "q",
                                               "entries": entries})
        argv = ["compose", "--lhs", path, "--rhs", path]
    else:
        path = write_json(tmp_path, "gamma.json", {"entries": entries})
        argv = ["frob", "eidem", "--B", "line:inc[1]", "--gamma", path]
    assert_usage_error(capsys, argv, f"{path}: entry [0, 0, 'B', '2'] "
                                     "repeats the orbit [0, 0, 'B']")


def test_frob_gamma_of(tmp_path):
    code, doc = run(tmp_path, "frob", "gamma-of",
                    "--map", "sym:inj[2] -> sym:inj[1] : [1]",
                    "--field", "qt")
    assert code == 0
    labels = {entry[0][2] for entry in doc["payload"]["gamma"]}
    assert labels == {"[1>1]", "[1>1,2>2]"}


def test_check_linearization(tmp_path):
    code, doc = run(tmp_path, "check-linearization", "--backend", "line",
                    "--bound", "3")
    assert code == 0


def report_sha256(tmp_path):
    return hashlib.sha256((tmp_path / "report.json").read_bytes()).hexdigest()


# Suite reports are pinned byte for byte: refactors must not move them.
SUITE_SHA256 = {
    "sym": "a0e3e9256dcb362b1a95009e1946743d6eff1ab2c5f379e806dddf16ba0c6953",
    "line": "b30c055eb4932d8dfe957ba98c0c74070e256dd96043e7bb0ed15ab664a31e59",
    "S3": "0b48a3e677eb27595aa7c7cc828bbc404ecdb2e9498d8bbf02184a970baed91c",
    "S4": "fe901fdc71069a06084e7b8c77373b457f043d624a6033be075803d820961372",
    "C2x4": "e5f4eded8ccfa66bb857f2e69b37e2f4f26bc66604c70252c18da648c16c4f4e",
    # D4 and an intransitive group on 6 points: both have non-normal
    # subgroups, so the orbit projections depend on which conjugator the
    # backend picks
    "(1 2 3 4); (1 3)":
        "d5b12c8a9ab293561da4e1739fb44f61c4ae2cf459eac3fca3acc9a1d953cfc4",
    "(1 2 3)(4 5 6); (1 4)":
        "b9c5b441f3e69d63d0e905642bf0a0dfd737e17afcae7a5b59dca3007121bc2c",
}

# pre-Galois reports, pinned the same way: sym at bounds 2 and 3 fails with
# its swap witness; line at bounds 2 and 3 and S3, S4 and C2x4 at bound 6
# pass
PREGALOIS_SHA256 = {
    "sym": "c34c5020894117da100b05b52370930c5fdadca44e46c78dc5c27735a86e014e",
    "line": "72b31270ae26119259975df09c6d7f77ec6eea441cf19cf1d045c53f4ace5d41",
    "S3": "bef90a5d4ebde6a40b91d53d9764381105e185ff22da70e4c184b22793491b00",
    "S4": "f8386727770ecc0821da7126161434716768e2f98702c09ed31a215775d673cd",
    "sym-2": "4ccee6523e5d74b7248481350194627024b6da365a0d9630eca5ebecb6be9f5d",
    "line-2": "0739abf669ed65d8a8a512b7f587be240a3515885611516f2bd0bae7b228ec1d",
    "C2x4": "343f4f0e298abd326584c46fbf1cfa369b5031e95e56e393da5b22620fb37467",
}


def test_suite_finite(tmp_path):
    for group in ("S3", "S4", "C2x4", "(1 2 3 4); (1 3)",
                  "(1 2 3)(4 5 6); (1 4)"):
        code, doc = run(tmp_path, "suite", "--backend", "finite",
                        "--group", group, "--bound", "6")
        assert code == 0
        assert report_sha256(tmp_path) == SUITE_SHA256[group]


def test_suite_infinite_backends(tmp_path):
    for backend in ("sym", "line"):
        code, doc = run(tmp_path, "suite", "--backend", backend, "--bound", "3")
        assert code == 0, [r for r in doc["results"] if r["status"] == "FAIL"]
        assert report_sha256(tmp_path) == SUITE_SHA256[backend]


def test_pregalois_reports_pinned(tmp_path):
    for backend, want_code in (("sym", 1), ("line", 0)):
        code, _doc = run(tmp_path, "pregalois", "--backend", backend,
                         "--bound", "3")
        assert code == want_code
        assert report_sha256(tmp_path) == PREGALOIS_SHA256[backend]
        # bound 2 is the universality degree of (d): all its atoms count
        code, _doc = run(tmp_path, "pregalois", "--backend", backend,
                         "--bound", "2")
        assert code == want_code
        assert report_sha256(tmp_path) == PREGALOIS_SHA256[f"{backend}-2"]
    for group in ("S3", "S4", "C2x4"):
        code, _doc = run(tmp_path, "pregalois", "--backend", "finite",
                         "--group", group, "--bound", "6")
        assert code == 0
        assert report_sha256(tmp_path) == PREGALOIS_SHA256[group]


def test_usage_errors(tmp_path):
    assert main(["pregalois"]) == 2  # missing backend
    assert main(["measure", "solve", "--backend", "finite", "--bound", "4"]) == 2
    assert main(["homdim", "--X", "sym:inj[1]", "--Y", "line:inc[1]"]) == 2


def test_field_flag_rejects_non_prime(tmp_path):
    for field in ("fp:4", "fp:abc", "fp", "fp:0", "r"):
        assert main(["dim", "--X", "sym:inj[1]", "--field", field]) == 2


@pytest.mark.parametrize("field", ["fp:1000000000000000003",
                                   "fp:1000000000000000001"],
                         ids=["prime", "composite"])
def test_field_characteristic_over_the_limit_is_refused(capsys, field):
    # 10**18 + 3 is prime and 10**18 + 1 = 101 * 9901 * ...; both are over
    # coeff.MAX_CHAR and refused before a trial division runs
    started = time.monotonic()
    assert_usage_error(capsys, ["dim", "--X", "sym:inj[1]", "--field", field],
                       "a prime at most 2147483647")
    assert time.monotonic() - started < 1.0


# reports over F_7, pinned byte for byte across the field check
FP7_SHA256 = {
    ("dim", "--X", "sym:inj[2]"):
        "408295c2afb8bf94dff254a459f2bcfd5cc3123f804e219c01c4d9b075195699",
    ("measure", "solve", "--backend", "sym", "--bound", "3"):
        "f0a6fba4d20d7bedcaf56236ff48d6dfd2f9d840b14b3cffcffe938171e7f562",
    ("frob", "verify", "--X", "sym:inj[2]"):
        "3f4936d6f0f48039ef11d169afbff0aee940345832700ae222c54e6a7c383e4a",
}


@pytest.mark.parametrize("argv", list(FP7_SHA256), ids=["dim", "measure-solve",
                                                         "frob-verify"])
def test_fp7_reports_are_pinned(tmp_path, argv):
    code, _doc = run(tmp_path, *argv, "--field", "fp:7")
    assert code == 0
    assert report_sha256(tmp_path) == FP7_SHA256[argv]


def test_spec_file_rejects_bad_field(tmp_path):
    spec = tmp_path / "measure.json"
    spec.write_text(json.dumps({"backend": "sym", "field": "fp"}),
                    encoding="utf-8")
    assert main(["measure", "check", "--spec", str(spec)]) == 2


def test_bound_guard(tmp_path, monkeypatch):
    monkeypatch.setenv("OLIGOPERM_MAX_BOUND", "3")
    assert main(["atoms", "--backend", "sym", "--bound", "5"]) == 2


@pytest.mark.parametrize("flag", [["--json", "{}"], ["--json={}"],
                                  ["--js", "{}"], ["--j={}"]],
                         ids=["json", "json=", "js", "j="])
def test_report_leaves_out_its_path(tmp_path, flag):
    """Where a report is saved, in any form argparse takes, never enters it."""
    argv = ["atoms", "--backend", "sym", "--bound", "2"]
    want = tmp_path / "want.json"
    assert main([*argv, "--json", str(want)]) == 0
    out = tmp_path / "elsewhere" / "report.json"
    out.parent.mkdir()
    assert main([*argv, *(t.format(out) for t in flag)]) == 0
    assert out.read_bytes() == want.read_bytes()
    assert json.loads(want.read_text(encoding="utf-8"))["command"] == (
        " ".join(argv))


def assert_usage_error(capsys, argv, expect):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and expect in err, err
    assert "Traceback" not in err


def test_bad_atom_label_is_usage_error(capsys):
    assert_usage_error(capsys, ["dim", "--X", "sym:inj[x]"], "inj[x]")


@pytest.mark.parametrize("argv, canonical", [
    (["dim", "--X", "sym:inj[00003]"], "sym:inj[3]"),
    (["dim", "--X", "sym:inj[٣]"], "sym:inj[3]"),
    (["dim", "--group", "S3", "--X", "finite:orbit#02"], "finite:orbit#2"),
], ids=["leading-zeros", "arabic-indic-digit", "finite-leading-zero"])
def test_non_canonical_atom_label_is_usage_error(capsys, argv, canonical):
    # each names an existing atom, but only its canonical label is accepted
    assert_usage_error(capsys, argv, f"is not canonical: write {canonical}")


def test_empty_summand_of_another_backend_is_usage_error(capsys):
    # the empty summand is read after the atom, which fixed the backend
    assert_usage_error(capsys, ["dim", "--X", "sym:inj[1] + line:0"],
                       "mixed backends in object expression")


def test_unknown_backend_prefix_is_usage_error(capsys):
    assert_usage_error(capsys, ["dim", "--X", "foo:inj[1]"],
                       "unknown backend 'foo'")


def test_bad_map_expression_is_usage_error(capsys):
    assert_usage_error(capsys, ["frob", "gamma-of", "--map", "nonsense"],
                       "SRC -> TGT : PATTERN")


def test_non_integer_max_bound_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("OLIGOPERM_MAX_BOUND", "abc")
    assert_usage_error(capsys, ["atoms", "--backend", "sym"],
                       "OLIGOPERM_MAX_BOUND='abc' is not an integer")


def test_bound_below_command_minimum(capsys):
    assert_usage_error(capsys, ["measure", "solve", "--backend", "sym",
                                "--bound", "-3"], "--bound -3 is below 2")


@pytest.mark.parametrize("command", ["pregalois", "check-linearization"])
def test_bound_below_unit_degree_is_usage_error(capsys, tmp_path, command):
    """Finite atoms start at degree 1: at bound 0 the atom list is empty and
    every check would PASS over it.  The infinite backends' unit atom has
    degree 0, so they keep bound 0."""
    assert main([command, "--backend", "finite", "--group", "(1 2 3)",
                 "--bound", "0"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "usage error: --bound 0 is below 1, the least this command accepts"]
    for backend in ("sym", "line"):
        code, doc = run(tmp_path, command, "--backend", backend,
                        "--bound", "0")
        assert code == 0 and doc["status"] == "PASS"


def test_measure_check_bound_below_unit_degree_is_usage_error(capsys,
                                                              tmp_path):
    spec = tmp_path / "measure.json"
    spec.write_text(json.dumps({"backend": "finite"}), encoding="utf-8")
    argv = ["measure", "check", "--spec", str(spec), "--group", "(1 2 3)"]
    assert main([*argv, "--bound", "0"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "usage error: --bound 0 is below 1, the least this command accepts"]
    code, doc = run(tmp_path, *argv, "--bound", "1")
    assert code == 0 and doc["status"] == "PASS"


@pytest.mark.parametrize("backend, fibers", [("sym", _sym_fibers(2)),
                                             ("finite", {})])
def test_measure_check_reports_the_spec_backend(tmp_path, backend, fibers):
    spec = tmp_path / "measure.json"
    spec.write_text(json.dumps({"backend": backend, "field": "qt",
                                "fibers": fibers}), encoding="utf-8")
    argv = ["measure", "check", "--spec", str(spec), "--group", "S3",
            "--bound", "1"]
    _code, doc = run(tmp_path, *argv)
    assert doc["backend"] == backend
    # the spec names the backend; the subcommand takes no --backend flag
    assert main([*argv, "--backend", backend]) == 2


@pytest.mark.parametrize("spec", [
    {"backend": "sym", "field": "qt"},
    {"backend": "sym", "field": "qt",
     "atoms": {"sym:inj[0]": "1", "sym:inj[1]": "t", "sym:inj[2]": "t^2 - t"}}],
    ids=["no-fibers", "atoms-only"])
def test_measure_check_short_fiber_table_is_usage_error(tmp_path, capsys,
                                                        spec):
    # the missing class is bad input, not a failing axiom (exit 1)
    path = write_json(tmp_path, "spec.json", spec)
    assert main(["measure", "check", "--spec", path, "--bound", "1"]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(f"usage error: {path}: no fiber value for "
                           "omega-minus[0]"), line


@pytest.mark.parametrize("argv, flag", [
    (["homdim", "--X", "line:inc[2]", "--Y", "line:inc[2]"], ["--bound", "9"]),
    (["homdim", "--X", "line:inc[2]", "--Y", "line:inc[2]"],
     ["--field", "fp:7"]),
    (["atoms", "--backend", "sym", "--bound", "2"], ["--field", "qt"]),
    (["pregalois", "--backend", "line", "--bound", "2"], ["--field", "q"]),
    (["suite", "--backend", "line", "--bound", "2"], ["--field", "q"]),
    (["measure", "check", "--spec", "spec.json"], ["--field", "qt"])],
    ids=["homdim-bound", "homdim-field", "atoms-field", "pregalois-field",
         "suite-field", "measure-check-field"])
def test_flag_the_subcommand_does_not_read_is_refused(capsys, argv, flag):
    # refused by the parser, before the spec file is opened or a check runs
    assert main([*argv, *flag]) == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


def test_atom_degree_guard(capsys, monkeypatch):
    # refused before anything is enumerated; only the refused form is run
    assert_usage_error(capsys, ["dim", "--X", "sym:inj[40]", "--bound", "2"],
                       "degree 40")
    monkeypatch.setenv("OLIGOPERM_MAX_BOUND", "3")
    assert_usage_error(capsys, ["frob", "gamma-of", "--map",
                                "sym:inj[4] -> sym:inj[1] : [1]"], "degree 4")


# Malformed JSON input files are usage errors, checked before any use.

E_NEQ = {"source": "sym:inj[1]", "target": "sym:inj[1]",
         "entries": [[0, 0, "[]", "1"]]}


def write_json(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def test_matrix_file_missing_key_is_usage_error(tmp_path, capsys):
    lhs = write_json(tmp_path, "lhs.json",
                     {k: v for k, v in E_NEQ.items() if k != "target"})
    rhs = write_json(tmp_path, "rhs.json", E_NEQ)
    assert_usage_error(capsys, ["compose", "--lhs", lhs, "--rhs", rhs],
                       "missing key 'target'")


def test_matrix_file_not_object_is_usage_error(tmp_path, capsys):
    lhs = write_json(tmp_path, "lhs.json", [E_NEQ])
    rhs = write_json(tmp_path, "rhs.json", E_NEQ)
    assert_usage_error(capsys, ["compose", "--lhs", lhs, "--rhs", rhs],
                       "expected a JSON object")


def test_gamma_file_unknown_label_is_usage_error(tmp_path, capsys):
    gamma = write_json(tmp_path, "gamma.json",
                       {"entries": [[0, 0, "nolabel", "1"]]})
    assert_usage_error(capsys, ["frob", "eidem", "--B", "sym:inj[1]",
                                "--gamma", gamma], "names no orbit")


def test_spec_file_missing_backend_is_usage_error(tmp_path, capsys):
    spec = write_json(tmp_path, "spec.json", {"field": "qt", "fibers": {}})
    assert_usage_error(capsys, ["measure", "check", "--spec", spec],
                       "missing key 'backend'")


BAD_MATRIX_FILES = {
    "short-entry": ({"entries": [[0, 0, "[]"]]}, "is not a [position"),
    "float-position": ({"entries": [[0.0, 0, "[]", "1"]]}, "is not a [position"),
    "list-label": ({"entries": [[0, 0, ["[]"], "1"]]}, "is not a [position"),
    "position-out-of-range": ({"entries": [[0, 1, "[]", "1"]]},
                              "names no orbit"),
    "number-scalar": ({"entries": [[0, 0, "[]", 1]]}, "is not a string"),
    "bad-scalar": ({"entries": [[0, 0, "[]", "1+"]]}, "bad scalar '1+'"),
    "zero-denominator": ({"entries": [[0, 0, "[]", "1/0"]]},
                         "bad scalar '1/0': inverse of zero"),
    "huge-power": ({"entries": [[0, 0, "[]", "2^100000000"]]},
                   "scalar size limit"),
    "entries-not-list": ({"entries": {"0": "1"}}, "must be a JSON list"),
    "mixed-backends": ({"target": "line:inc[1]", "entries": []},
                       "different backends"),
}


@pytest.mark.parametrize("case", list(BAD_MATRIX_FILES))
def test_malformed_matrix_file_is_usage_error(tmp_path, capsys, case):
    change, expect = BAD_MATRIX_FILES[case]
    lhs = write_json(tmp_path, "lhs.json", {**E_NEQ, **change})
    rhs = write_json(tmp_path, "rhs.json", E_NEQ)
    assert_usage_error(capsys, ["compose", "--lhs", lhs, "--rhs", rhs], expect)


LINE_IDENTITY = {"field": "fp:7", "source": "line:inc[1]",
                 "target": "line:inc[1]", "entries": [[0, 0, "B", "1"]]}


def test_compose_files_in_fp(tmp_path):
    path = write_json(tmp_path, "ident.json", LINE_IDENTITY)
    code, doc = run(tmp_path, "compose", "--lhs", path, "--rhs", path,
                    "--field", "fp:7")
    assert code == 0
    assert doc["payload"]["entries"] == [[0, 0, "B", "1"]]


def test_scalar_without_image_in_fp_is_usage_error(tmp_path, capsys):
    # 7 is zero in F7, so 1/7 divides by zero
    path = write_json(tmp_path, "ident.json",
                      {**LINE_IDENTITY, "entries": [[0, 0, "B", "1/7"]]})
    assert_usage_error(capsys, ["compose", "--lhs", path, "--rhs", path,
                                "--field", "fp:7"],
                       f"{path}: bad scalar '1/7': inverse of zero")


def test_spec_file_zero_denominator_is_usage_error(tmp_path, capsys):
    spec = write_json(tmp_path, "spec.json",
                      {"backend": "sym", "field": "qt",
                       "atoms": {"sym:inj[1]": "t/(t - t)"}})
    assert_usage_error(capsys, ["measure", "check", "--spec", spec],
                       f"{spec}: bad scalar 't/(t - t)': inverse of zero")


@pytest.mark.parametrize("file_field, flag", [
    ("fp:7", []), ("fp:7", ["--field", "fp:5"]), ("q", ["--field", "fp:7"]),
    ("qt", ["--field", "fp:7"])],
    ids=["fp7-vs-default", "fp7-vs-fp5", "q-vs-fp7", "qt-vs-fp7"])
def test_compose_field_mismatch_is_usage_error(tmp_path, capsys, file_field,
                                               flag):
    path = write_json(tmp_path, "ident.json",
                      {**LINE_IDENTITY, "field": file_field})
    assert_usage_error(capsys, ["compose", "--lhs", path, "--rhs", path,
                                *flag], "has characteristic")


def test_compose_shapes_that_do_not_chain_is_usage_error(tmp_path, capsys):
    # lhs: inj[1] -> inj[1] after rhs: inj[1] -> inj[2] does not chain
    lhs = write_json(tmp_path, "lhs.json", {
        "field": "qt", "source": "sym:inj[1]", "target": "sym:inj[1]",
        "entries": [[0, 0, "[]", "1"]]})
    rhs = write_json(tmp_path, "rhs.json", {
        "field": "qt", "source": "sym:inj[1]", "target": "sym:inj[2]",
        "entries": [[0, 0, "[1>1]", "1"]]})
    assert_usage_error(capsys, ["compose", "--lhs", lhs, "--rhs", rhs,
                                "--field", "qt"],
                       "lhs source sym:inj[1] is not rhs target sym:inj[2]")


def test_non_json_file_is_usage_error(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text("backend = sym", encoding="utf-8")
    assert_usage_error(capsys, ["measure", "check", "--spec", str(spec)],
                       "not valid JSON")


@pytest.mark.parametrize("key", ["sym:0", "sym:inj[1] + sym:inj[2]",
                                 "line:inc[1]"])
def test_spec_atoms_key_must_name_one_atom(tmp_path, capsys, key):
    spec = write_json(tmp_path, "spec.json",
                      {"backend": "sym", "field": "qt", "atoms": {key: "t"}})
    assert_usage_error(capsys, ["measure", "check", "--spec", spec],
                       "is not one sym atom")


def test_spec_scalar_power_guard(tmp_path, capsys):
    spec = write_json(tmp_path, "spec.json",
                      {"backend": "sym", "field": "qt",
                       "atoms": {"sym:inj[1]": "(t+1)^300"}})
    assert_usage_error(capsys, ["measure", "check", "--spec", spec],
                       "scalar size limit")


def test_spec_scalar_product_guard(tmp_path, capsys):
    spec = write_json(tmp_path, "spec.json", {
        "backend": "sym", "field": "qt",
        "atoms": {"sym:inj[1]": "(t+1)^256*(t+1)^256*(t+1)^256*(t+1)^256"}})
    assert_usage_error(capsys, ["measure", "check", "--spec", spec],
                       "scalar size limit")


def test_spec_integer_literal_guard(tmp_path, capsys):
    spec = write_json(tmp_path, "spec.json", {
        "backend": "sym", "field": "qt", "atoms": {"sym:inj[1]": "9" * 400}})
    assert_usage_error(capsys, ["measure", "check", "--spec", spec],
                       "scalar size limit")


@pytest.mark.parametrize("group, expect", [
    ("()", "empty cycle"), ("(1 2 1)", "a point repeats"),
    ("(1 2)(2 3)", "a point repeats"), ("(0 1)", "points are numbered from 1"),
    ("   ", "no cycle"),
    ("(1 99999999999999999999)",
     "point 99999999999999999999 is above MAX_POINT = 60"),
    ("(1 10000000)", "point 10000000 is above MAX_POINT = 60"),
    ("(1 2", "unclosed parenthesis"), ("(1 a)", "'a' is not an integer"),
    ("((1 2)", "nested parenthesis")],
    ids=["empty-cycle", "repeated-point", "overlapping-cycles", "point-zero",
         "blank", "point-overflow", "point-far-off", "unclosed", "not-integer",
         "nested"])
def test_group_that_is_not_a_permutation_is_usage_error(capsys, group, expect):
    start = time.perf_counter()
    assert_usage_error(capsys, ["atoms", "--backend", "finite", "--group",
                                group, "--bound", "2"],
                       f"bad --group {group!r}: {expect}")
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("flag", ["--spec", "--lhs", "--rhs", "--gamma",
                                  "--map", "--json"])
def test_directory_path_is_usage_error(tmp_path, capsys, flag):
    matrix = write_json(tmp_path, "ident.json", LINE_IDENTITY)
    directory = str(tmp_path)
    argv = {
        "--spec": ["measure", "check", "--spec", directory],
        "--lhs": ["compose", "--lhs", directory, "--rhs", matrix,
                  "--field", "fp:7"],
        "--rhs": ["compose", "--lhs", matrix, "--rhs", directory,
                  "--field", "fp:7"],
        "--gamma": ["frob", "eidem", "--B", "sym:inj[1]", "--gamma",
                    directory, "--field", "qt"],
        "--map": ["frob", "gamma-of", "--map", directory, "--field", "qt"],
        "--json": ["atoms", "--backend", "sym", "--bound", "1",
                   "--json", directory],
    }[flag]
    # the quoted path names the directory, not the matrix file inside it
    assert_usage_error(capsys, argv, repr(directory))


@pytest.mark.parametrize("group", ["(1 2); (1 2 3 4 5)",
                                   "(1 2); (1 2 3 4 5 6)"],
                         ids=["S5", "S6"])
def test_group_order_guard(capsys, group):
    started = time.monotonic()
    assert_usage_error(capsys, ["atoms", "--backend", "finite", "--group",
                                group, "--bound", "2"], "group order exceeds")
    assert time.monotonic() - started < 5.0


@pytest.mark.parametrize("error", [MemoryError, RecursionError])
def test_resource_exhaustion_exits_3(monkeypatch, capsys, error):
    """Running out of memory or stack is not a failing check (exit 1): the
    CLI exits 3 with one stderr line and no traceback."""
    from oligoperm import cli

    def exhausted(args):
        raise error("out of room")

    monkeypatch.setattr(cli, "cmd_frob_verify", exhausted)
    assert main(["frob", "verify", "--X", "sym:inj[1]"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"resource error: {error.__name__}, the run stopped without a verdict"]


def perfbench_cli_calls():
    """The argv lists of the benchmark's ``cli-mix`` workload."""
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"
    spec = importlib.util.spec_from_file_location("perfbench_run", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.CLI_CALLS


# one valid call per leaf subcommand, with flags in their short, long and
# --flag=value forms
SUBCOMMAND_CALLS = [
    ["atoms", "--backend", "finite", "--group", "S3", "--bound", "2",
     "--json", "r.json"],
    ["homdim", "--X", "sym:inj[1]", "--Y", "sym:inj[2]", "--group", "S3"],
    ["compose", "--lhs", "a.json", "--rhs", "b.json", "--field", "qt",
     "--bound", "3"],
    ["dim", "--X", "sym:inj[1]", "--field", "fp:7", "--bound", "2"],
    ["measure", "solve", "--backend", "line", "--bound", "5", "--field", "qt"],
    ["measure", "check", "--spec", "spec.json", "--bound", "3"],
    ["frob", "verify", "--X", "line:inc[1]", "--js", "r.json"],
    ["frob", "eidem", "--B", "sym:inj[2]", "--gamma", "all-ones"],
    ["frob", "gamma-of", "--map=sym:inj[2] -> sym:inj[1] : [1]"],
    ["pregalois", "--backend", "sym", "--bound", "3"],
    ["check-linearization", "--backend", "finite", "--group", "S4"],
    ["suite", "--backend", "finite", "--group", "S3", "--bound", "6"],
]

# help and parse errors, of the top-level parser and of subparsers
PARSER_EXITS = [
    [], ["--help"], ["bogus"], ["suite", "--backend", "sym", "extra"],
    ["frob"], ["measure", "solve", "--bogus"], ["atoms", "--help"],
    ["frob", "gamma-of", "--help"], ["measure", "bogus"],
    ["atoms", "--bound", "x"], ["suite", "--backend", "nope"],
    ["homdim", "--X", "sym:inj[1]"],
] + [[name, "--help"] for name in ("homdim", "compose", "dim", "measure",
                                   "frob", "pregalois", "check-linearization",
                                   "suite")]


def parse_outcome(parser, argv):
    """What parsing argv prints and returns: (namespace or None, stdout,
    stderr, exit code or None)."""
    import contextlib
    import io

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            args, code = parser.parse_args(argv), None
        except SystemExit as exc:
            args, code = None, exc.code
    return args, out.getvalue(), err.getvalue(), code


def test_subcommand_parser_matches_the_full_parser():
    """``main`` builds the parser of the subcommand argv[0] names only; it
    must parse every call as the parser of all subcommands does, and print
    the same help and errors with the same exit code."""
    from oligoperm.cli import _COMMANDS, build_parser

    calls = perfbench_cli_calls()
    assert len(calls) == 16
    assert {argv[0] for argv in SUBCOMMAND_CALLS} == set(_COMMANDS)
    for argv in calls + SUBCOMMAND_CALLS:
        args, *printed = parse_outcome(build_parser(argv[0]), argv)
        assert args is not None and printed == ["", "", None], argv
        assert args == parse_outcome(build_parser(), argv)[0], argv
    for argv in PARSER_EXITS:
        command = argv[0] if argv else None
        outcome = parse_outcome(build_parser(command), argv)
        assert outcome == parse_outcome(build_parser(), argv), argv
        assert outcome[0] is None and outcome[3] in (0, 2), argv


def test_main_builds_only_the_named_subcommand(monkeypatch, capsys):
    import argparse

    from oligoperm import cli

    real, built = cli.build_parser, []

    def recording(command=None):
        built.append(real(command))
        return built[-1]

    monkeypatch.setattr(cli, "build_parser", recording)
    assert main(["atoms", "--backend", "sym", "--bound", "1"]) == 0
    assert main(["bogus"]) == 2
    capsys.readouterr()
    assert [list(action.choices) for parser in built
            for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)] == [
        ["atoms"], list(cli._COMMANDS)]
