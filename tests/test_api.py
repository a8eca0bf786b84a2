"""The package holds only what the package itself uses.

Every name exported in penexp.__all__, and every public top-level function
and class defined in src/penexp, must be used by code in src/penexp other
than its own definition and __init__.py; an import alone is not a use.
Names that only tests would call belong in tests/oracles.py instead.
"""

import ast
import os

import penexp

# Public names without a caller in the package. Empty: a name listed here
# would be an exception to the rule above, and none is needed.
ALLOWED_UNUSED = set()


def _defined_name(node):
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return node.name
    if isinstance(node, ast.Assign) and len(node.targets) == 1 and \
            isinstance(node.targets[0], ast.Name):
        return node.targets[0].id
    return None


def _modules():
    src = os.path.dirname(penexp.__file__)
    for fname in sorted(os.listdir(src)):
        if fname.endswith(".py") and fname != "__init__.py":
            with open(os.path.join(src, fname)) as fh:
                yield ast.parse(fh.read(), fname)


def _public_definitions():
    """Public top-level functions and classes of the package modules."""
    return {top.name for tree in _modules() for top in tree.body
            if isinstance(top, (ast.FunctionDef, ast.ClassDef))
            and not top.name.startswith("_")}


def _used_names():
    """Names read anywhere in the package modules, each top-level
    definition's own name excepted inside that definition."""
    used = set()
    for tree in _modules():
        for top in tree.body:
            names = set()
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and \
                        isinstance(node.ctx, ast.Load):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
            names.discard(_defined_name(top))
            used |= names
    return used


def test_every_export_has_a_caller_in_the_package():
    public = set(penexp.__all__) | _public_definitions()
    unused = public - _used_names()
    # equality also catches an allowlist entry that has gained a caller
    assert unused == ALLOWED_UNUSED, \
        "public but unused in src/penexp: %s" % sorted(unused)
