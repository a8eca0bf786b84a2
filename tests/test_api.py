"""The public API holds only what the package itself uses.

A name exported in penexp.__all__ must be used by code in src/penexp other
than its own definition and __init__.py; an import alone is not a use.
Names that only tests would call belong in tests/oracles.py instead.
"""

import ast
import os

import penexp

# Exported without a caller in the package: kept until the cones are
# reworked, and dropped from this set as soon as they gain one.
ALLOWED_UNUSED = {"complexity_estimate", "support_cone"}


def _defined_name(node):
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return node.name
    if isinstance(node, ast.Assign) and len(node.targets) == 1 and \
            isinstance(node.targets[0], ast.Name):
        return node.targets[0].id
    return None


def _used_names():
    """Names read anywhere in the package modules, each top-level
    definition's own name excepted inside that definition."""
    src = os.path.dirname(penexp.__file__)
    used = set()
    for fname in sorted(os.listdir(src)):
        if not fname.endswith(".py") or fname == "__init__.py":
            continue
        with open(os.path.join(src, fname)) as fh:
            tree = ast.parse(fh.read(), fname)
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
    unused = set(penexp.__all__) - _used_names()
    # equality also catches an allowlist entry that has gained a caller
    assert unused == ALLOWED_UNUSED, \
        "exported but unused in src/penexp: %s" % sorted(unused)
