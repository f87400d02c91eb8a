"""No dead code in the package: an AST scan of ``src/oligoperm``.

Every module-level public function or class must be referenced from the
package outside its own definition, or be exported through a package
``__all__``.  A ``Name``, an ``Attribute`` or an imported alias counts as a
reference; names are matched as strings, so the scan errs towards keeping.

Every private attribute that code in the package stores on ``self`` must
also be read in the package, so that no table is built only for tests to
read.  Filling it (``self._x[k] = v``) is not a read.
"""

import ast
from collections import Counter
from pathlib import Path

import oligoperm

PACKAGE = Path(oligoperm.__file__).parent


def referenced_names(tree):
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.alias):
            out[node.name.rsplit(".", 1)[-1]] += 1
    return out


def exported_names(tree):
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


def unreferenced_public_names():
    trees = {path: ast.parse(path.read_text())
             for path in sorted(PACKAGE.rglob("*.py"))}
    references = Counter()
    exported = set()
    for path, tree in trees.items():
        references += referenced_names(tree)
        if path.name == "__init__.py":
            exported |= exported_names(tree)
    dead = []
    for path, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            name = node.name
            if name.startswith("_") or name in exported:
                continue
            if references[name] - referenced_names(node)[name] <= 0:
                dead.append(f"{path.relative_to(PACKAGE)}:{name}")
    return dead


def test_every_public_name_is_used():
    assert unreferenced_public_names() == []


def private_attribute_stores_and_reads(trees):
    """(private attribute names stored on ``self``, with where; attribute
    names loaded anywhere).  The attribute that a subscript assignment
    fills, ``self._x`` of ``self._x[k] = v``, is not counted as loaded."""
    stored, loaded = {}, set()
    for path, tree in trees.items():
        filled = {id(node.value) for node in ast.walk(tree)
                  if isinstance(node, ast.Subscript)
                  and isinstance(node.ctx, (ast.Store, ast.Del))}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Attribute):
                continue
            if isinstance(node.ctx, ast.Store):
                if (isinstance(node.value, ast.Name)
                        and node.value.id == "self"
                        and node.attr.startswith("_")
                        and not node.attr.startswith("__")):
                    stored.setdefault(node.attr, f"{path.relative_to(PACKAGE)}"
                                                 f":{node.lineno}")
            elif isinstance(node.ctx, ast.Load) and id(node) not in filled:
                loaded.add(node.attr)
    return stored, loaded


def test_every_private_attribute_is_read():
    trees = {path: ast.parse(path.read_text())
             for path in sorted(PACKAGE.rglob("*.py"))}
    stored, loaded = private_attribute_stores_and_reads(trees)
    assert stored
    assert {name: where for name, where in stored.items()
            if name not in loaded} == {}


def test_a_filled_but_unread_attribute_is_flagged():
    """A table stored on ``self`` and filled by subscript, but never read,
    is caught; one read back is not."""
    tree = ast.parse(
        "class C:\n"
        "    def __init__(self):\n"
        "        self._only_filled = {}\n"
        "        self._read = {}\n"
        "        for k in range(3):\n"
        "            self._only_filled[k] = k\n"
        "            self._read[k] = k\n"
        "    def get(self, k):\n"
        "        return self._read[k]\n")
    stored, loaded = private_attribute_stores_and_reads(
        {PACKAGE / "probe.py": tree})
    assert set(stored) == {"_only_filled", "_read"}
    assert [name for name in stored if name not in loaded] == ["_only_filled"]
