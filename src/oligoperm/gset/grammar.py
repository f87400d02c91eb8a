"""Textual grammar for objects and maps.

Atoms: ``sym:inj[2]``, ``line:inc[3]``, ``finite:orbit#2``, each under its
canonical label only (``sym:inj[02]`` is refused).
Objects: atoms joined with ``+``; the empty object is ``<backend>:0``.
Atom maps: ``SRC -> TGT : PATTERN`` where PATTERN is a selection list
``[2,1]``, a drop set ``drop{1,3}`` (complement selection in order), or a
point list ``pt[0,2,1]`` for the finite backend.
"""

from __future__ import annotations

from .base import AtomMap, GObject


def _backend(backends, backend_id):
    backend_id = backend_id.strip()
    if backend_id not in backends:
        raise ValueError(f"unknown backend {backend_id!r}")
    return backends[backend_id]


def parse_atom(backends, text, max_degree=None):
    """Parse one atom; a label that is not its atom's canonical one, such
    as ``inj[03]``, and an atom of degree above ``max_degree`` are
    refused."""
    text = text.strip()
    if ":" not in text:
        raise ValueError(f"atom expression needs a backend prefix: {text!r}")
    backend_id, label = text.split(":", 1)
    backend = _backend(backends, backend_id)
    label = label.strip()
    atom = backend.parse_atom_label(label)
    if atom.label != label:
        raise ValueError(f"atom label {label!r} is not canonical: "
                         f"write {atom.render()}")
    if max_degree is not None and atom.degree > max_degree:
        raise ValueError(f"atom {atom.render()} has degree {atom.degree}, "
                         f"above the limit {max_degree}")
    return backend, atom


def parse_object(backends, text, max_degree=None):
    parts = [p.strip() for p in text.split("+")]
    backend = None
    atoms = []
    for part in parts:
        if part.endswith(":0"):
            b = _backend(backends, part.split(":")[0])
        else:
            b, atom = parse_atom(backends, part, max_degree)
            atoms.append(atom)
        if backend is None:
            backend = b
        elif b is not backend:
            raise ValueError("mixed backends in object expression")
    if backend is None:
        raise ValueError(f"cannot parse object expression {text!r}")
    return backend, GObject.of(backend.backend_id, atoms)


def render_pattern(m):
    if m.source.backend_id == "finite":
        return "pt[" + ",".join(str(i) for i in m.data) + "]"
    return "[" + ",".join(str(i) for i in m.data) + "]"


def parse_atom_map(backends, text, max_degree=None):
    """Parse and validate an atom map.  ``max_degree`` is enforced on both
    atoms before validation, which enumerates the maps between them."""
    if ":" not in text or text.count("->") != 1:
        raise ValueError(f"map expression needs the form SRC -> TGT : PATTERN: "
                         f"{text!r}")
    head, pattern = text.rsplit(":", 1)
    src_txt, tgt_txt = head.split("->")
    backend, src = parse_atom(backends, src_txt, max_degree)
    _, tgt = parse_atom(backends, tgt_txt, max_degree)
    pattern = pattern.strip()
    if pattern.startswith("drop{"):
        dropped = {int(tok) for tok in pattern[5:-1].split(",") if tok.strip()}
        sel = tuple(i for i in range(1, src.degree + 1) if i not in dropped)
        data = sel
    elif pattern.startswith("pt["):
        data = tuple(int(tok) for tok in pattern[3:-1].split(",") if tok.strip())
    elif pattern.startswith("["):
        data = tuple(int(tok) for tok in pattern[1:-1].split(",") if tok.strip())
    else:
        raise ValueError(f"bad map pattern {pattern!r}")
    m = AtomMap(src, tgt, data)
    _validate_map(backend, m)
    return backend, m


def _validate_map(backend, m):
    for candidate in backend.hom_atoms(m.source, m.target):
        if candidate == m:
            return
    raise ValueError(f"{render_pattern(m)} is not an equivariant map "
                     f"{m.source.render()} -> {m.target.render()}")
