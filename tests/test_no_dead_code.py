"""No dead code in the package: an AST scan of ``src/oligoperm``.

Every module-level public function or class must be referenced from the
package outside its own definition, or be exported through a package
``__all__``.  A ``Name``, an ``Attribute`` or an imported alias counts as a
reference; names are matched as strings, so the scan errs towards keeping.
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
