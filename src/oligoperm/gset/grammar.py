"""Textual grammar for objects and maps.

Atoms: ``sym:inj[2]``, ``line:inc[3]``, ``finite:orbit#2``.
Objects: atoms joined with ``+``; the empty object is ``<backend>:0``.
Atom maps: ``SRC -> TGT : PATTERN`` where PATTERN is a selection list
``[2,1]``, a drop set ``drop{1,3}`` (complement selection in order), or a
point list ``pt[0,2,1]`` for the finite backend.
"""

from __future__ import annotations

from .base import AtomMap, GObject


def parse_atom(backends, text):
    text = text.strip()
    if ":" not in text:
        raise ValueError(f"atom expression needs a backend prefix: {text!r}")
    backend_id, label = text.split(":", 1)
    backend = backends[backend_id.strip()]
    return backend, backend.parse_atom_label(label.strip())


def parse_object(backends, text):
    parts = [p.strip() for p in text.split("+")]
    backend = None
    atoms = []
    for part in parts:
        if part.endswith(":0"):
            backend = backends[part.split(":")[0]]
            continue
        b, atom = parse_atom(backends, part)
        if backend is None:
            backend = b
        elif b is not backend:
            raise ValueError("mixed backends in object expression")
        atoms.append(atom)
    if backend is None:
        raise ValueError(f"cannot parse object expression {text!r}")
    return backend, GObject.of(backend.backend_id, atoms)


def render_pattern(m):
    if m.source.backend_id == "finite":
        return "pt[" + ",".join(str(i) for i in m.data) + "]"
    return "[" + ",".join(str(i) for i in m.data) + "]"


def parse_atom_map(backends, text):
    head, pattern = text.rsplit(":", 1)
    src_txt, tgt_txt = head.split("->")
    backend, src = parse_atom(backends, src_txt)
    _, tgt = parse_atom(backends, tgt_txt)
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
