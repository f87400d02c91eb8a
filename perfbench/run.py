"""Verdict benchmark for oligoperm: cold units, checked against known answers.

    python3 perfbench/run.py --workload suite-line --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --record     # rewrite known_answers.json

Run from the root of a checkout.  Every unit starts cold, in a fresh
interpreter that imports the package from ``src/``; units run one at a time.
With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics, with ``--trace 1`` with the per-layer metrics of a traced
unit (see README.md).  Results, and with tracing the spans, are also written
under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
UNIT = HERE / "unit.py"
ANSWERS = HERE / "known_answers.json"
OUT = HERE / "out"

RUN_LIMIT_S = 170  # a run, set-up included, ends within this
SETUP_PROBES = 9  # extra set-up-only interpreters per run of an API workload

CLI_CALLS = [
    ["atoms", "--backend", "sym", "--bound", "3"],
    ["measure", "solve", "--backend", "sym", "--bound", "4"],
    ["measure", "solve", "--backend", "line", "--bound", "4"],
    ["pregalois", "--backend", "sym", "--bound", "3"],
    ["pregalois", "--backend", "line", "--bound", "3"],
    ["homdim", "--X", "line:inc[2]", "--Y", "line:inc[2]"],
    ["dim", "--X", "sym:inj[1]", "--field", "qt"],
    ["dim", "--X", "sym:inj[2]", "--field", "fp:7"],
    ["frob", "verify", "--X", "sym:inj[2]", "--field", "qt"],
    ["frob", "verify", "--X", "line:inc[2]"],
    ["frob", "eidem", "--B", "sym:inj[2]", "--gamma", "diagonal", "--field", "qt"],
    ["frob", "gamma-of", "--map", "sym:inj[2] -> sym:inj[1] : [1]", "--field", "qt"],
    ["check-linearization", "--backend", "line", "--bound", "3"],
    ["check-linearization", "--backend", "sym", "--bound", "3"],
    ["suite", "--backend", "finite", "--group", "S3", "--bound", "6"],
    ["suite", "--backend", "finite", "--group", "S4", "--bound", "6"],
]

# t = 1 is left out: mu vanishes from degree 2 up and classify then costs
# about 30% less, so the seed rather than the program would move verdict_s
MEASURE_TS = (2, 3)

# workload -> (uses the seed, the next unit's child processes from a
# seeded generator)
WORKLOADS = {
    "suite-line": (False, lambda rng: [{"kind": "suite", "backend": "line",
                                        "bound": 3}]),
    "suite-sym": (False, lambda rng: [{"kind": "suite", "backend": "sym",
                                       "bound": 3}]),
    "measure-sym": (True, lambda rng: [{"kind": "measure", "backend": "sym",
                                        "bound": 4,
                                        "t": rng.choice(MEASURE_TS)}]),
    "cli-mix": (True, lambda rng: [{"kind": "cli", "argv": argv} for argv
                                   in rng.sample(CLI_CALLS, len(CLI_CALLS))]),
}

END_TO_END = [("verdict_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]

PER_LAYER = [
    ("coeff.self_s", "s"), ("coeff.make.calls", "count"),
    ("coeff.from_int.calls", "count"), ("coeff.arith.calls", "count"),
    ("gset.self_s", "s"), ("gset.product_factor.calls", "count"),
    ("gset.product_factor.repeat_ratio", "ratio"),
    ("gset.product_decompose.calls", "count"),
    ("gset.product_decompose.repeat_ratio", "ratio"),
    ("gset.orbits_enumerated", "count"), ("gset.compose_maps.calls", "count"),
    ("gset.pregalois_check.s", "s"),
    ("measure.self_s", "s"), ("measure.solve_measures.s", "s"),
    ("measure.check_measure_axioms.s", "s"), ("measure.classify_measure.s", "s"),
    ("measure.mu_map.calls", "count"),
    ("linmat.self_s", "s"), ("linmat.block_tensor.calls", "count"),
    ("linmat.block_tensor.s", "s"), ("linmat.multi_factor.calls", "count"),
    ("linmat.matmul.calls", "count"), ("linmat.matmul.s", "s"),
    ("linmat.tensor_space.calls", "count"),
    ("linmat.tensor_space.repeat_ratio", "ratio"),
    ("linmat.pushforward_surjective_on_invariants.s", "s"),
    ("permcat.self_s", "s"), ("permcat.check_snake_identities.s", "s"),
    ("permcat.check_linearization.s", "s"),
    ("frob.self_s", "s"), ("frob.e_idempotent_check.calls", "count"),
    ("frob.e_idempotent_check.s", "s"), ("frob.gamma_of_projection.s", "s"),
    ("frob.verify_frobenius.s", "s"), ("frob.check_trace.s", "s"),
    ("frob.check_perfect_pairing.s", "s"), ("frob.splitting_idempotent.s", "s"),
    ("oracle.self_s", "s"), ("oracle.finite_category_oracle.s", "s"),
    ("oracle.expand_finite_matrix.calls", "count"),
    ("oracle.sym_orbit_count_model.s", "s"),
    ("suite.self_s", "s"),
    ("cli.import_s", "s"), ("cli.main_s", "s"), ("cli.process_s", "s"),
    ("trace.unit_s", "s"), ("trace.overhead_s", "s"),
]

ARITH = {"__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
         "__truediv__", "__rtruediv__", "__neg__", "__pow__", "inv"}


# Known answers

def falling(n, k):
    out = 1
    for i in range(k):
        out *= n - i
    return out


def check_unit(spec, outcome, answers):
    """Ways in which one child's verdict differs from the known answer."""
    kind = spec["kind"]
    if kind == "suite":
        want = answers[f"suite-{spec['backend']}"]
        errors = []
        if outcome["status"] != want["status"]:
            errors.append(f"status {outcome['status']}: {outcome['failures']}")
        if outcome["checks"] != want["checks"]:
            errors.append(f"{len(outcome['checks'])} checks, expected "
                          f"{len(want['checks'])} under the recorded names")
        return errors
    if kind == "measure":
        return _check_measure(spec, outcome, answers["measure-sym"])
    want = answers["cli-mix"].get(" ".join(spec["argv"]))
    if want is None:
        return ["no recorded answer for this call"]
    errors = [f"{key} {outcome[key]!r}, expected {want[key]!r}"
              for key in ("exit", "sha256", "checks") if outcome[key] != want[key]]
    failing = [f["check"] for f in outcome["failures"]]
    if failing != want["failing"]:
        errors.append(f"failing checks {failing}, expected {want['failing']}")
    elif "witness_atom" in want:
        atom = outcome["failures"][0]["witness"].get("atom")
        if atom != want["witness_atom"]:
            errors.append(f"witness at {atom}, expected {want['witness_atom']}")
    return errors


def _check_measure(spec, outcome, want):
    t, bound = spec["t"], spec["bound"]
    degrees = outcome["degrees"]
    errors = []
    if outcome["parameters"] != ["t"] or outcome["residual"]:
        errors.append(f"family {outcome['parameters']} with residual "
                      f"{outcome['residual']}")
    if degrees != list(range(bound + 1)):
        errors.append(f"atom degrees {degrees}")
    for n, values in outcome["values_at"].items():
        if values != [str(falling(int(n), k)) for k in degrees]:
            errors.append(f"atom values at t={n} are {values}")
    if outcome["values_specialized"] != [str(falling(t, k)) for k in degrees]:
        errors.append(f"specialized values {outcome['values_specialized']}")
    if (outcome["axioms_status"], outcome["axioms_checks"]) != (
            "PASS", want["axioms_checks"]):
        errors.append(f"axioms {outcome['axioms_status']} with "
                      f"{outcome['axioms_checks']} checks")
    regular = all(falling(t, k) != 0 for k in range(bound + 1))
    if outcome["regular"] is not regular:
        errors.append(f"regular={outcome['regular']}, expected {regular}")
    normal = want["normal_within_bound (regression)"][str(t)]
    if outcome["normal_within_bound"] is not normal:
        errors.append(f"normal_within_bound={outcome['normal_within_bound']}, "
                      f"recorded {normal}")
    return errors


def record_answers():
    """Run every distinct unit once and write what it answers today."""
    def outcome(spec):
        result, error = spawn(spec, time.monotonic() + 600)
        if error:
            sys.exit(f"record: {spec}: {error}")
        return result["outcome"]

    answers = {"note": "Recorded from the program by `run.py --record`. Check "
                       "names, digests and normal_within_bound are regression "
                       "values; the falling factorials and regularity are "
                       "computed independently in run.py."}
    for backend in ("line", "sym"):
        got = outcome({"kind": "suite", "backend": backend, "bound": 3})
        answers[f"suite-{backend}"] = {"status": got["status"],
                                       "checks": got["checks"]}
    normal, checks = {}, set()
    for t in MEASURE_TS:
        got = outcome({"kind": "measure", "backend": "sym", "bound": 4, "t": t})
        normal[str(t)] = got["normal_within_bound"]
        checks.add(got["axioms_checks"])
    answers["measure-sym"] = {"axioms_checks": checks.pop(),
                              "normal_within_bound (regression)": normal}
    calls = {}
    for argv in CLI_CALLS:
        got = outcome({"kind": "cli", "argv": argv})
        entry = {key: got[key] for key in ("exit", "sha256", "checks")}
        entry["failing"] = [f["check"] for f in got["failures"]]
        if got["failures"] and "atom" in got["failures"][0]["witness"]:
            entry["witness_atom"] = got["failures"][0]["witness"]["atom"]
        calls[" ".join(argv)] = entry
    answers["cli-mix"] = calls
    ANSWERS.write_text(json.dumps(answers, indent=1, sort_keys=True) + "\n")


# Running units

def spawn(spec, deadline):
    """Run one child; return (its JSON result with the spawn stamps, error)."""
    began = time.monotonic()
    spec = dict(spec, spawned=began)
    try:
        proc = subprocess.run(
            [sys.executable, "-I", str(UNIT), json.dumps(spec)],
            cwd=ROOT, capture_output=True, text=True,
            timeout=max(1.0, deadline - began))
    except subprocess.TimeoutExpired:
        return None, "timed out"
    ended = time.monotonic()
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-3:]
        return None, f"exit {proc.returncode}: " + " | ".join(tail)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["spawned"], result["exited"] = began, ended
    return result, None


def run_unit(specs, answers, deadline, trace=False, unit_id=0):
    """One unit (one or more children in turn), timed and checked."""
    unit = {"setup_s": 0.0, "verdict_s": 0.0, "setup_wall_s": 0.0,
            "verdict_wall_s": 0.0, "rss_mb": 0.0, "errors": [], "calls": [],
            "stats": {}, "spans": []}
    for spec in specs:
        spec = dict(spec, trace=trace, unit=unit_id)
        result, error = spawn(spec, deadline)
        if error:
            unit["errors"].append(f"{_describe(spec)}: {error}")
            continue
        for field in ("setup_s", "verdict_s", "setup_wall_s", "verdict_wall_s"):
            unit[field] += result[field]
        unit["rss_mb"] = max(unit["rss_mb"], result["rss_kb"] / 1024)
        unit["errors"] += [f"{_describe(spec)}: {e}"
                           for e in check_unit(spec, result["outcome"], answers)]
        if spec["kind"] == "cli":
            unit["calls"].append({
                "import_s": result["import_s"],
                "main_s": result["verdict_wall_s"],
                "process_s": result["exited"] - result["spawned"]})
        if trace:
            _merge_stats(unit["stats"], result["stats"])
            unit["spans"].append({"unit": unit_id, "child": _describe(spec),
                                  "missing": result["missing"],
                                  "spans": result["spans"]})
    return unit


def _describe(spec):
    if spec["kind"] == "cli":
        return "oligoperm " + " ".join(spec["argv"])
    extra = f" t={spec['t']}" if "t" in spec else ""
    return f"{spec['kind']} {spec['backend']} bound {spec['bound']}{extra}"


def _merge_stats(into, stats):
    for key, row in stats.items():
        acc = into.setdefault(key, dict.fromkeys(row, 0))
        for field, value in row.items():
            acc[field] += value


def setup_sample(spec, deadline):
    result, error = spawn(dict(spec, setup_only=True), deadline)
    if error:
        sys.exit(f"set-up of {_describe(spec)} failed: {error}")
    return result["setup_s"]


def layer_metrics(stats, calls, overhead):
    """Per-layer metrics of one traced unit; absent when the function is."""
    rows = {}
    for key, row in stats.items():
        layer, _, qualname = key.partition(":")
        rows.setdefault(layer, []).append((qualname.rsplit(".", 1)[-1], row))
    out = {}
    for name, _unit in PER_LAYER:
        layer, _, rest = name.partition(".")
        if layer == "cli":
            out[name] = (statistics.median(c[rest] for c in calls)
                         if calls else 0.0)
            continue
        if name == "trace.unit_s":  # the unit as the tracer accounts for it
            out[name] = sum(row["self_s"] for row in stats.values())
            continue
        if name == "trace.overhead_s":
            out[name] = overhead
            continue
        if rest == "self_s":
            out[name] = sum(r["self_s"] for _, r in rows.get(layer, ()))
            continue
        if rest == "orbits_enumerated":
            fn, stat = "product_decompose", "items"
        else:
            fn, stat = rest.rsplit(".", 1)
        names = ARITH if fn == "arith" else {fn}
        matched = [r for qual, r in rows.get(layer, ()) if qual in names]
        if not matched:
            continue
        count = sum(r["calls"] for r in matched)
        if stat == "calls":
            out[name] = count
        elif stat == "s":
            out[name] = sum(r["busy_s"] for r in matched)
        elif stat == "items":
            out[name] = sum(r["items"] for r in matched)
        else:
            out[name] = sum(r["repeats"] for r in matched) / count if count else 0.0
    return out


# Environment

def environment(args, seeded):
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
        digest.update(path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seed_used": seeded,
        "seconds": args.seconds, "trace": bool(args.trace),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "cpu_model": cpu, "git_commit": commit,
        "source_sha256": digest.hexdigest(),
    }


# Main

def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="rewrite known_answers.json from the program")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "oligoperm" / "__init__.py").is_file():
        print(f"no oligoperm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.record:
        record_answers()
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    deadline = time.monotonic() + RUN_LIMIT_S
    seeded, plan = WORKLOADS[args.workload]
    answers = json.loads(ANSWERS.read_text())
    env = environment(args, seeded)
    print("# env " + json.dumps(env, sort_keys=True))
    if not seeded:
        print(f"# seed {args.seed} ignored: {args.workload} has one fixed input")
    rng = random.Random(args.seed)

    # compile the package's bytecode outside any timed interpreter
    first = plan(random.Random(args.seed))[0]
    setup_sample(first, deadline)
    setups = []
    if first["kind"] != "cli" and not args.trace:
        setups = [setup_sample(first, deadline) for _ in range(SETUP_PROBES)]

    units, layer_rows, spans = [], [], []
    started = time.monotonic()
    while not units or time.monotonic() - started < args.seconds:
        specs = plan(rng)
        if not args.trace:
            units.append(run_unit(specs, answers, deadline))
            continue
        plain = run_unit(specs, answers, deadline)
        traced = run_unit(specs, answers, deadline, trace=True,
                          unit_id=len(layer_rows))
        units += [plain, traced]
        layer_rows.append(layer_metrics(
            traced["stats"], plain["calls"],
            traced["verdict_wall_s"] - plain["verdict_wall_s"]))
        spans += traced["spans"]

    failed = [u for u in units if u["errors"]]
    for unit in failed:
        for error in unit["errors"]:
            print(f"verdict error: {error}", file=sys.stderr)
    if args.trace:
        names = [(n, u) for n, u in PER_LAYER if all(n in r for r in layer_rows)]
        metrics = {n: {"value": statistics.median(r[n] for r in layer_rows),
                       "unit": u} for n, u in names}
    else:
        good = [u for u in units if not u["errors"]] or units
        setups += [u["setup_s"] for u in good]
        values = {"verdict_s": statistics.median(u["verdict_s"] for u in good),
                  "setup_s": statistics.median(setups),
                  "peak_rss_mb": statistics.median(u["rss_mb"] for u in good)}
        metrics = {n: {"value": values[n], "unit": u} for n, u in END_TO_END}
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(f"verdict_errors {len(failed)} count (of {len(units)} units)")
    walls = {f: statistics.median(u[f] for u in units)
             for f in ("verdict_wall_s", "setup_wall_s")}
    print("# unscaled wall seconds: " + ", ".join(
        f"{f} {v:.6g} s" for f, v in walls.items()))

    OUT.mkdir(exist_ok=True)
    mode = "trace" if args.trace else "run"
    record = {"env": env, "metrics": metrics, "verdict_errors": len(failed),
              "units": [{k: u[k] for k in ("setup_s", "verdict_s", "setup_wall_s",
                                           "verdict_wall_s", "rss_mb", "errors",
                                           "calls")} for u in units]}
    if args.trace:
        record["spans"] = spans
    path = OUT / f"{mode}-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps(record) + "\n")

    correct = not failed
    print(json.dumps({"correct": correct, "attempted": len(units),
                      "failed": len(failed), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
