"""Command-line surface.

Reports are deterministic: identical inputs produce byte-identical JSON
(sorted keys, canonical scalar rendering, no timing in the JSON payload;
wall-clock timing is printed on the human-readable stream only).

Exit codes: 0 when every check passes, 1 when a check fails, 2 on usage
errors.  The environment variable OLIGOPERM_MAX_BOUND (default 10) guards
runaway enumeration: it caps ``--bound`` and the degree of every atom named in
an object or map expression, and a value that is not an integer is a usage
error.  So is a ``--bound`` of ``pregalois`` or ``check-linearization`` below
the degree of the backend's unit atom, and an object with no atom for
``frob verify`` or ``frob eidem``, where no atom would be checked.
Input files (matrices, ``--gamma`` tables and
measure specs) are checked by ``_read_json`` and ``_read_entries`` before use:
a document that is not an object, lacks a key, or has an entry that names no
orbit or repeats one is a usage error too, and so is a matrix file whose
field has another characteristic than ``--field`` and a measure spec whose
fiber table lacks a class the bound reaches.  Each subcommand takes only the
flags it reads.  A call builds the parser of the subcommand it names only;
help and errors read as they do with every subparser built.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from .coeff import MAX_CHAR, is_field_char, one, parse_scalar
from .errors import DivisionByZero, OligopermError, UnknownAtom, UsageError
from .frob import (
    build_frobenius,
    check_frobenius,
    e_idempotent_check,
    gamma_of_projection,
    splitting_fn,
)
from .gset import LINE, SYM, atom_gmap, preset_backend
from .gset.grammar import parse_atom_map, parse_object
from .gset.pregalois import pregalois_check
from .linmat import (
    InvariantMatrix,
    SchwartzFn,
    column_to_fn,
    constant_fn,
    matmul,
    tensor_space,
)
from .measure import Measure, check_measure_axioms, solve_measures
from .permcat import (
    categorical_dim,
    check_linearization,
    duality_data,
    hom_dimension,
)
from .report import CheckResult, Report
from .suite import run_suite

SCHEMA = 1


def _finite(group):
    try:
        return preset_backend(group)
    except ValueError as exc:
        raise UsageError(f"bad --group {group!r}: {exc}") from None


def _backends(args):
    """The backends by name: ``finite`` only when --group names its group."""
    table = {"sym": SYM, "line": LINE}
    if args.group:
        table["finite"] = _finite(args.group)
    return table


def _backend(args):
    if args.backend is None:
        raise UsageError("--backend is required")
    if args.backend == "finite" and not args.group:
        raise UsageError("--group is required with --backend finite")
    return _backends(args)[args.backend]


def _char(field):
    """The characteristic a field flag or spec field names: q, qt or fp:<p>."""
    field = str(field or "q")
    if field in {"q", "qt"}:
        return 0
    digits = field[3:] if field.startswith("fp:") else ""
    # more digits than MAX_CHAR has are over it, and int() refuses a string
    # of more than 4,300 digits
    p = (int(digits) if digits.isdecimal()
         and len(digits) <= len(str(MAX_CHAR)) else 0)
    if not is_field_char(p):
        raise UsageError(f"unknown field {field!r}: use q, qt or fp:<p> with "
                         f"p a prime at most {MAX_CHAR}")
    return p


def _max_bound():
    text = os.environ.get("OLIGOPERM_MAX_BOUND", "10")
    try:
        return int(text)
    except ValueError:
        raise UsageError(f"OLIGOPERM_MAX_BOUND={text!r} is not an "
                         "integer") from None


def _bound(args, default=3, minimum=0):
    bound = getattr(args, "bound", None)
    if bound is None:
        bound = default
    if bound < minimum:
        raise UsageError(f"--bound {bound} is below {minimum}, the least "
                         "this command accepts")
    guard = _max_bound()
    if bound > guard:
        raise UsageError(f"bound {bound} exceeds OLIGOPERM_MAX_BOUND={guard}")
    return bound


def _parse(parse, backends, text):
    """Run a grammar parser on command-line or file input.

    Malformed expressions, unknown backends and atoms of degree above
    OLIGOPERM_MAX_BOUND are usage errors; the degree is checked before any
    enumeration starts.
    """
    try:
        return parse(backends, text, max_degree=_max_bound())
    except ValueError as exc:
        raise UsageError(f"bad expression {text!r}: {exc}") from None


def _measure_for(args, backend, bound, objects=()):
    """The generic measure over --field, deep enough for the composites of
    objects; its description goes into the report."""
    need = max([bound, 2] + [a.degree for obj in objects for a in obj.atoms])
    family = solve_measures(backend, need, char=_char(args.field))
    args._measure_desc = family.description
    return family.generic()


def _emit(args, report, payload=None, started=None):
    doc = {
        "schema": SCHEMA,
        "command": " ".join(args.echo),
        "backend": getattr(args, "backend", None) or "",
        "measure": getattr(args, "_measure_desc", ""),
        "results": [r.to_dict() for r in report.results],
        "status": "PASS" if report.passed else "FAIL",
    }
    if payload:
        doc["payload"] = payload
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if getattr(args, "json", None):
        with open(args.json, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    if started is not None:
        elapsed = time.monotonic() - started
        print(f"# {report.title}: {doc['status']} "
              f"({len(report.results)} checks, {elapsed:.2f}s)",
              file=sys.stderr)
    return 0 if report.passed else 1


# Subcommand handlers

def cmd_atoms(args):
    backend = _backend(args)
    bound = _bound(args)
    atoms = backend.atoms_up_to(bound)
    report = Report("atoms", [CheckResult("enumerate", True)])
    payload = {"atoms": [a.render() for a in atoms],
               "degrees": [a.degree for a in atoms]}
    return _emit(args, report, payload)


def cmd_homdim(args):
    backends = _backends(args)
    backend, x = _parse(parse_object, backends, args.X)
    backend2, y = _parse(parse_object, backends, args.Y)
    if backend is not backend2:
        raise UsageError("objects come from different backends")
    dim = hom_dimension(backend, x, y)
    report = Report("homdim", [CheckResult("hom-dimension", True)])
    return _emit(args, report, {"dim": dim})


_JSON_TYPES = {dict: "object", list: "list", str: "string"}


def _read_json(path, required, optional=None):
    """A JSON object read from a file.

    ``required`` and ``optional`` map keys to the type their value must
    have.  A document that is not a JSON object, a missing required key or a
    value of the wrong type is a usage error.
    """
    with open(path, encoding="utf-8") as handle:
        try:
            doc = json.load(handle)
        except ValueError as exc:  # undecodable bytes or malformed JSON
            raise UsageError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise UsageError(f"{path}: expected a JSON object, "
                         f"not {type(doc).__name__}")
    for key, kind in {**required, **(optional or {})}.items():
        if key not in doc:
            if key in required:
                raise UsageError(f"{path}: missing key {key!r}")
        elif not isinstance(doc[key], kind):
            raise UsageError(f"{path}: {key!r} must be a JSON "
                             f"{_JSON_TYPES[kind]}")
    return doc


def _read_scalar(path, field, text):
    if not isinstance(text, str):
        raise UsageError(f"{path}: scalar {text!r} is not a string")
    try:
        return parse_scalar(field, text)
    except (ValueError, DivisionByZero) as exc:
        raise UsageError(f"{path}: bad scalar {text!r}: {exc}") from None


def _read_entries(path, doc, ps, field):
    """The ``[left, right, label, scalar]`` items of a file's ``entries``
    list, as {(left, right, label): scalar}.

    ``ps`` is the two-factor product space the entries index: each
    (left position, right position, orbit label) must be one of its
    positions.
    """
    entries = {}
    for entry in doc["entries"]:
        if not (isinstance(entry, list) and len(entry) == 4
                and all(type(p) is int for p in entry[:2])
                and isinstance(entry[2], str)):
            raise UsageError(f"{path}: entry {entry!r} is not a "
                             "[position, position, label, scalar] list")
        key = tuple(entry[:3])
        if key not in ps.index:
            raise UsageError(f"{path}: entry {entry!r} names no orbit of "
                             f"{ps.object.render()}")
        if key in entries:
            raise UsageError(f"{path}: entry {entry!r} repeats the orbit "
                             f"{list(key)!r}")
        entries[key] = _read_scalar(path, field, entry[3])
    return entries


def _matrix_file(backends, path, char):
    """A matrix file's document, backend, source and target.

    The file's ``"field"`` (default q) must have the characteristic ``char``
    of ``--field``.  Its entries are read once the measure, and with it the
    field, is known.
    """
    doc = _read_json(path, {"source": str, "target": str, "entries": list},
                     {"field": str})
    backend, source = _parse(parse_object, backends, doc["source"])
    backend2, target = _parse(parse_object, backends, doc["target"])
    if backend is not backend2:
        raise UsageError(f"{path}: source and target come from different "
                         "backends")
    field = doc.get("field", "q")
    if _char(field) != char:
        raise UsageError(f"{path}: field {field!r} has characteristic "
                         f"{_char(field)}, --field has {char}")
    return doc, backend, source, target


def cmd_compose(args):
    backends = _backends(args)
    char = _char(args.field)
    paths = (args.lhs, args.rhs)
    files = [_matrix_file(backends, path, char) for path in paths]
    (_, backend, source, target), (_, backend2, rhs_source, rhs_target) = files
    if backend is not backend2:
        raise UsageError("matrices come from different backends")
    if rhs_target != source:
        raise UsageError(f"cannot compose: lhs source {source.render()} is "
                         f"not rhs target {rhs_target.render()}")
    measure = _measure_for(args, backend, _bound(args),
                           [source, target, rhs_source])
    # positions of target x source are the (t, s, label) keys of a matrix
    lhs, rhs = (InvariantMatrix(backend, s, t, _read_entries(
                    path, doc, tensor_space(backend, [t, s]), measure.field))
                for path, (doc, _, s, t) in zip(paths, files))
    product = matmul(measure, lhs, rhs)
    report = Report("compose", [CheckResult("compose", True)])
    payload = {"source": product.source.render(),
               "target": product.target.render(),
               "entries": product.render_entries()}
    return _emit(args, report, payload)


def cmd_dim(args):
    backends = _backends(args)
    backend, x = _parse(parse_object, backends, args.X)
    measure = _measure_for(args, backend, _bound(args), [x])
    value = categorical_dim(measure, x,
                            *duality_data(backend, x, measure.field))
    report = Report("dim", [CheckResult("categorical-dimension", True)])
    return _emit(args, report, {"dim": value.render()})


def cmd_measure_solve(args):
    backend = _backend(args)
    bound = _bound(args, default=4, minimum=2)
    started = time.monotonic()
    family = solve_measures(backend, bound, char=_char(args.field))
    args._measure_desc = family.description
    atoms = backend.atoms_up_to(bound)
    payload = {
        "family_params": list(family.parameters),
        "atoms": [a.render() for a in atoms],
        "values": [family.atom_values[a].render() for a in atoms],
        "fibers": {cls: family.fiber_values[cls].render()
                   for cls in backend.fiber_classes(bound)},
        "residual": list(family.residual),
    }
    report = Report("measure solve",
                    [CheckResult("solver-residual-empty", not family.residual)])
    return _emit(args, report, payload, started)


def cmd_measure_check(args):
    backends = _backends(args)
    doc = _read_json(args.spec, {"backend": str},
                     {"atoms": dict, "fibers": dict})
    backend = backends.get(doc["backend"])
    if backend is None:
        if doc["backend"] == "finite":
            raise UsageError("pass --group with finite measure specs")
        raise UsageError(f"unknown backend {doc['backend']!r} in spec file")
    args.backend = doc["backend"]
    bound = _atom_bound(args, backend)
    family = solve_measures(backend, 2, char=_char(doc.get("field")))
    field = family.field
    atom_values = {}
    for label, text in doc.get("atoms", {}).items():
        owner, obj = _parse(parse_object, backends, label)
        if owner is not backend or len(obj.atoms) != 1:
            raise UsageError(f"{args.spec}: atoms key {label!r} is not one "
                             f"{doc['backend']} atom")
        atom_values[obj.atoms[0]] = _read_scalar(args.spec, field, text)
    fiber_values = {cls: _read_scalar(args.spec, field, text)
                    for cls, text in doc.get("fibers", {}).items()}
    measure = Measure(backend, field, atom_values, fiber_values,
                      description=f"spec file {args.spec}")
    args._measure_desc = measure.description
    started = time.monotonic()
    try:
        report = check_measure_axioms(measure, bound)
    except UnknownAtom as exc:  # the spec's fiber table stops short
        raise UsageError(f"{args.spec}: {exc}") from None
    return _emit(args, report, None, started)


def _gamma_from_args(args, backend, x, field):
    ps2 = tensor_space(backend, [x, x])
    if args.gamma == "all-ones":
        return constant_fn(ps2.object, one(field))
    if args.gamma == "diagonal":
        coev, _ = duality_data(backend, x, field)
        return column_to_fn(coev)
    doc = _read_json(args.gamma, {"entries": list})
    entries = _read_entries(args.gamma, doc, ps2, field)
    coeffs = {ps2.index[key]: value for key, value in entries.items()}
    return SchwartzFn(ps2.object, coeffs)


def _checked_object(args, flag):
    """The object of ``--<flag>``: over no atom every check would hold."""
    text = getattr(args, flag)
    backend, x = _parse(parse_object, _backends(args), text)
    if not x.atoms:
        raise UsageError(f"--{flag} {text} has no atom to check")
    return backend, x


def cmd_frob_verify(args):
    backend, x = _checked_object(args, "X")
    measure = _measure_for(args, backend, _bound(args), [x])
    started = time.monotonic()
    _, reports = check_frobenius(build_frobenius(backend, x, measure.field),
                                 measure)
    results = [r for name in ("frobenius", "trace", "pairing", "splitting")
               for r in reports[name].results]
    return _emit(args, Report(f"frobenius on {x.render()}", results), None,
                 started)


def cmd_frob_eidem(args):
    backend, x = _checked_object(args, "B")
    measure = _measure_for(args, backend, _bound(args), [x])
    gamma = _gamma_from_args(args, backend, x, measure.field)
    report = e_idempotent_check(backend, x, gamma, measure,
                                splitting_fn(backend, x, measure))
    return _emit(args, report)


def cmd_frob_gamma_of(args):
    backends = _backends(args)
    text = args.map
    if os.path.exists(text):
        with open(text, encoding="utf-8") as handle:
            text = handle.read().strip()
    backend, m = _parse(parse_atom_map, backends, text)
    measure = _measure_for(args, backend, _bound(args),
                           [backend.object_of([m.source])])
    f = atom_gmap(backend, m)
    gamma, report = gamma_of_projection(backend, f, measure)
    ps2 = tensor_space(backend, [f.source, f.source])
    payload = {"gamma": [
        [list(ps2.positions[i].meta), value.render()]
        for i, value in sorted(gamma.coeffs.items())
    ]}
    return _emit(args, report, payload)


def _atom_bound(args, backend):
    """The bound of a check over ``atoms_up_to(bound)``: below the unit
    atom's degree that list is empty and every axiom would hold over it."""
    return _bound(args, minimum=backend.unit_atom().degree)


def cmd_pregalois(args):
    backend = _backend(args)
    bound = _atom_bound(args, backend)
    started = time.monotonic()
    report = pregalois_check(backend, bound)
    return _emit(args, report, None, started)


def cmd_check_linearization(args):
    backend = _backend(args)
    bound = _atom_bound(args, backend)
    measure = _measure_for(args, backend, bound)
    started = time.monotonic()
    report = check_linearization(measure, bound)
    return _emit(args, report, None, started)


def cmd_suite(args):
    backend = _backend(args)
    started = time.monotonic()
    # the sym suite's expected pre-Galois witness lives on an atom of degree 2
    report = run_suite(backend, _bound(args, default=4, minimum=2))
    return _emit(args, report, None, started)


def _common(p, backend=False, bound=True, field=True):
    if bound:
        p.add_argument("--bound", type=int, default=None)
    if field:
        p.add_argument("--field", default=None,
                       help="q, qt, or fp:<p>")
    p.add_argument("--group", default=None,
                   help="finite group: S3, C2x4, S4, or cycle notation")
    p.add_argument("--json", default=None, help="write the report here")
    if backend:
        p.add_argument("--backend", choices=["sym", "line", "finite"])


def _atoms_parser(p):
    _common(p, backend=True, field=False)
    p.set_defaults(func=cmd_atoms)


def _homdim_parser(p):
    _common(p, bound=False, field=False)
    p.add_argument("--X", required=True)
    p.add_argument("--Y", required=True)
    p.set_defaults(func=cmd_homdim)


def _compose_parser(p):
    _common(p)
    p.add_argument("--lhs", required=True)
    p.add_argument("--rhs", required=True)
    p.set_defaults(func=cmd_compose)


def _dim_parser(p):
    _common(p)
    p.add_argument("--X", required=True)
    p.set_defaults(func=cmd_dim)


def _measure_parser(p):
    msub = p.add_subparsers(dest="measure_cmd", required=True)
    ps = msub.add_parser("solve")
    _common(ps, backend=True)
    ps.set_defaults(func=cmd_measure_solve)
    pc = msub.add_parser("check")
    _common(pc, field=False)
    pc.add_argument("--spec", required=True)
    pc.set_defaults(func=cmd_measure_check)


def _frob_parser(p):
    fsub = p.add_subparsers(dest="frob_cmd", required=True)
    pv = fsub.add_parser("verify")
    _common(pv)
    pv.add_argument("--X", required=True)
    pv.set_defaults(func=cmd_frob_verify)
    pe = fsub.add_parser("eidem")
    _common(pe)
    pe.add_argument("--B", required=True)
    pe.add_argument("--gamma", required=True,
                    help="diagonal, all-ones, or a JSON file")
    pe.set_defaults(func=cmd_frob_eidem)
    pg = fsub.add_parser("gamma-of")
    _common(pg)
    pg.add_argument("--map", required=True)
    pg.set_defaults(func=cmd_frob_gamma_of)


def _pregalois_parser(p):
    _common(p, backend=True, field=False)
    p.set_defaults(func=cmd_pregalois)


def _check_linearization_parser(p):
    _common(p, backend=True)
    p.set_defaults(func=cmd_check_linearization)


def _suite_parser(p):
    _common(p, backend=True, field=False)
    p.set_defaults(func=cmd_suite)


# subcommand -> (the keywords of its add_parser call, the builder of its
# arguments); a command without "help" is left out of the top-level help
_COMMANDS = {
    "atoms": ({"help": "enumerate atoms within a bound"}, _atoms_parser),
    "homdim": ({"help": "dimension of a hom space"}, _homdim_parser),
    "compose": ({"help": "compose two matrices from files"}, _compose_parser),
    "dim": ({"help": "categorical dimension of an object"}, _dim_parser),
    "measure": ({"help": "measure solving and checking"}, _measure_parser),
    "frob": ({"help": "frobenius and idempotent checks"}, _frob_parser),
    "pregalois": ({"help": "axiom profile of a backend"}, _pregalois_parser),
    "check-linearization": ({}, _check_linearization_parser),
    "suite": ({"help": "every checker, composed"}, _suite_parser),
}


def build_parser(command=None):
    """The command-line parser.  When ``command`` names a subcommand, only
    that subcommand's parser (with its nested ones) is built; its usage line
    still lists every subcommand, as the full parser's does.  Otherwise (no
    command, a help flag or an unknown name) every subparser is built, so
    help and the invalid-choice error read as they always have."""
    parser = argparse.ArgumentParser(
        prog="oligoperm",
        description="Exact workbench for measures and invariant-matrix "
                    "calculus over oligomorphic permutation groups.")
    if command in _COMMANDS:
        # a metavar would also rename the action in the full parser's
        # "argument cmd: invalid choice" error, which cannot arise here
        sub = parser.add_subparsers(
            dest="cmd", required=True,
            metavar="{" + ",".join(_COMMANDS) + "}")
        names = [command]
    else:
        sub = parser.add_subparsers(dest="cmd", required=True)
        names = list(_COMMANDS)
    for name in names:
        keywords, build = _COMMANDS[name]
        build(sub.add_parser(name, **keywords))
    return parser


def _echo(argv):
    """The command line without its output path, so that where a report is
    saved never changes its bytes.  Drops every form argparse takes for
    ``--json``: ``--json P``, ``--json=P`` and the abbreviations ``--js P``,
    ``--j=P`` and so on (no other option starts with ``--j``)."""
    echo = []
    tokens = iter(argv)
    for token in tokens:
        name, eq, _path = token.partition("=")
        if len(name) > 2 and "--json".startswith(name):
            if not eq:
                next(tokens, None)
            continue
        echo.append(token)
    return echo


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    args.echo = _echo(argv)
    args._measure_desc = ""
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except OligopermError as exc:
        print(f"error [{exc.code}]: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        # a path that is missing, a directory or otherwise unreadable or
        # unwritable
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    # Out of memory, even a tuple of the two classes may not be allocated,
    # so each gets its own clause, and the report waits until the handler
    # has released the failed run's frames.
    except MemoryError:
        crash = "MemoryError"
    except RecursionError:
        crash = "RecursionError"
    print(f"resource error: {crash}, the run stopped without a verdict",
          file=sys.stderr)
    return 3


if __name__ == "__main__":
    sys.exit(main())
