"""One benchmark unit, run in this fresh interpreter.

    python3 -I perfbench/unit.py '<spec as JSON>'

The spec names the unit: a suite (``{"kind": "suite", "backend": "line",
"bound": 3}``), a measure classification (``{"kind": "measure", "t": 2,
"bound": 4}``) or one CLI call (``{"kind": "cli", "argv": [...]}``), plus
``"spawned"`` (the parent's monotonic clock when it started this process) and
``"trace"`` and ``"setup_only"`` flags.  The process prints one JSON line with
the set-up and verdict seconds, its peak resident memory, a summary of the
verdict for the known-answer check, and with tracing on the tracer's counters
and spans.  Set-up is everything before the verdict: interpreter start, the
imports and the backend's construction.

Host speed.  On a shared host the same unit's wall time swings by half
between runs: the virtual CPU runs about 1.7 times slower whenever a
neighbour loads the physical core, in episodes from a fraction of a second
to minutes.  So an untraced unit samples the host's speed every
``PROBE_PERIOD_S`` of wall time: a timer signal runs a fixed piece of Python
(``probe``) and records its duration.  Each interval is reported both as
raw wall seconds and "host-scaled": its wall seconds, less the probes' own
time, times the mean of ``PROBE_NOMINAL_S / probe duration`` over the probes
that fell in it.  Host-scaled seconds are a consistent scale for comparing
one workload across commits, not wall time.
"""

import json
import os
import signal
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

PROBE_PERIOD_S = 0.02
# a probe's duration, interrupting a suite, on an uncontended core of the
# reference machine (2-core Intel Xeon virtual machine, CPython 3.11.7)
PROBE_NOMINAL_S = 0.00037
RECALIBRATE_PERIOD_S = 0.1  # traced units: see tracer.Tracer.recalibrate
PROBE_POINTS = range(7)

_probes = []  # (monotonic stamp, seconds)


def probe(signum=None, frame=None):
    """Fixed work like the program's own: Fraction sums stored under tuples."""
    began = time.monotonic()
    total, table = Fraction(0), {}
    for i in range(1, 150):
        total += Fraction(1, i % 97 + 1)
        table[(i % 101, i % 7)] = total
    _probes.append((began, time.monotonic() - began))


def host_scaled(start, end):
    """Seconds of [start, end) at the reference speed, from the probes."""
    inside = [d for t, d in _probes if start <= t < end] or [d for _, d in _probes]
    if not inside:
        return end - start
    speed = sum(PROBE_NOMINAL_S / d for d in inside) / len(inside)
    return (end - start - sum(d for t, d in _probes if start <= t < end)) * speed


def _api_unit(spec):
    """Set up an API unit; return (verdict, summarize)."""
    # calls go through the module attributes, where the tracer re-binds them
    from oligoperm import gset, measure, suite

    backend = {"line": gset.LineBackend, "sym": gset.SymBackend}[spec["backend"]]()
    bound = spec["bound"]
    if spec["kind"] == "suite":
        return lambda: suite.run_suite(backend, bound), _suite_outcome

    def verdict():
        family = measure.solve_measures(backend, bound)
        specialized = family.specialize(spec["t"])
        axioms = measure.check_measure_axioms(specialized, bound)
        return family, specialized, axioms, measure.classify_measure(
            specialized, bound)
    return verdict, lambda result: _measure_outcome(backend, bound, *result)


def _suite_outcome(report):
    return {
        "status": "PASS" if report.passed else "FAIL",
        "checks": [r.name for r in report.results],
        "failures": [{"check": r.name, "witness": r.witness}
                     for r in report.failures()],
    }


def _measure_outcome(backend, bound, family, measure, axioms, verdict):
    atoms = backend.atoms_up_to(bound)
    return {
        "parameters": list(family.parameters),
        "residual": list(family.residual),
        "degrees": [a.degree for a in atoms],
        "values_at": {str(n): [family.atom_values[a].evaluate(n).render()
                               for a in atoms] for n in PROBE_POINTS},
        "values_specialized": [measure.mu_atom(a).render() for a in atoms],
        "axioms_status": "PASS" if axioms.passed else "FAIL",
        "axioms_checks": len(axioms.results),
        "regular": verdict["regular"],
        "normal_within_bound": verdict["normal_within_bound"],
    }


def _cli_outcome(result):
    import hashlib

    code, text = result
    doc = json.loads(text)
    return {
        "exit": code,
        "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
        "status": doc["status"],
        "checks": len(doc["results"]),
        "failures": [{"check": r["check"], "witness": r.get("witness", {})}
                     for r in doc["results"] if r["status"] != "PASS"],
    }


def main(spec):
    if not spec.get("trace"):
        signal.signal(signal.SIGALRM, probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
    out = {}
    if spec["kind"] == "cli":
        import io

        began = time.monotonic()
        from oligoperm.cli import main as cli_main
        ready = time.monotonic()
        out["import_s"] = ready - began

        def verdict():
            saved, sys.stdout = sys.stdout, io.StringIO()
            try:
                return cli_main(spec["argv"]), sys.stdout.getvalue()
            finally:
                sys.stdout = saved
        summarize = _cli_outcome
    else:
        verdict, summarize = _api_unit(spec)
        ready = time.monotonic()
    out["setup_wall_s"] = ready - spec["spawned"]
    if spec.get("setup_only"):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        out["setup_s"] = host_scaled(spec["spawned"], ready)
        return out

    tracer = None
    if spec.get("trace"):
        import tracer as tracing

        tracer = tracing.Tracer(clock=time.monotonic, unit=spec.get("unit", 0))
        out["missing"] = tracing.install(tracer)
        signal.signal(signal.SIGALRM, lambda signum, frame: tracer.recalibrate())
        signal.setitimer(signal.ITIMER_REAL, RECALIBRATE_PERIOD_S,
                         RECALIBRATE_PERIOD_S)
    start = time.monotonic()
    result = verdict()
    end = time.monotonic()
    signal.setitimer(signal.ITIMER_REAL, 0, 0)
    out["setup_s"] = host_scaled(spec["spawned"], ready)
    out["verdict_wall_s"] = end - start
    out["verdict_s"] = host_scaled(start, end)
    if tracer is not None:
        # snapshots: the summary below runs traced code too
        out["stats"] = tracer.report()
        out["spans"] = list(tracer.spans)
    out["outcome"] = summarize(result)

    import resource

    out["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return out


if __name__ == "__main__":
    result = main(json.loads(sys.argv[1]))
    sys.stdout.write(json.dumps(result) + "\n")
