"""The package holds only what the package itself uses.

Every public top-level function, class and constant defined in src/penexp
must be used by code in src/penexp other than its own definition; an import
alone is not a use. Every public member of those classes (method, property,
class attribute or dataclass field) must be read, as an attribute or a
keyword argument, by src/penexp or the benchmark in bench/. Every parameter
of a public function, or of a public method of those classes, must be read
in its body. Names that only tests would call belong in tests/oracles.py
instead. The package root holds its docstring alone, so every object has
one name, the one in its module.

numpy is the package's only run-time dependency: scipy is for the tests and
the benchmark alone.
"""

import argparse
import ast
import os
import re
import subprocess
import sys
from dataclasses import MISSING, fields

import penexp
from penexp import cli, harness

# Public names without a caller in the package. Empty: a name listed here
# would be an exception to the rule above, and none is needed.
ALLOWED_UNUSED = set()

# Public class members that only tests read, each kept for the acceptance
# test that reads it.
ALLOWED_UNREAD_MEMBERS = {
    # test_acceptance.py::test_logistic_curvature_slope_constant checks it
    # against the analytic max |sig''|
    "d2_lipschitz",
}

# Parameters that a public function or method takes and does not read, keyed
# module.Class.method.param (module.function.param for a function), each
# with the reason it is kept.
ALLOWED_UNREAD_PARAMS = {
    # interface conformance: callers pass every loss or penalty the same
    # arguments, and these implementations need fewer of them
    "losses.SquaredLoss.d2.y": "l'' is 1",
    "losses.LogisticLoss.d2.y": "l'' is sig'(u) for either label",
    "losses.SquaredLoss.curvature.beta_star": "K is cov",
    "losses.LogisticLoss.responses.noise_sd": "labels have no noise level",
    "losses.LogisticLoss.penalty_scale.dataset": "the label scale is 1/2",
    "penalties.GroupPenalty.prox_risk.n_draws": "the risk is exact",
    "penalties.GroupPenalty.prox_risk.seed": "the risk is exact",
    # bench-bound (ROADMAP item 1)
    "solver.fit_expansion.loss": "bench/experiment.py binds it by name",
}


def _defined_name(node):
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return node.name
    if isinstance(node, ast.Assign) and len(node.targets) == 1 and \
            isinstance(node.targets[0], ast.Name):
        return node.targets[0].id
    return None


def _named_modules(src=os.path.dirname(penexp.__file__)):
    for fname in sorted(os.listdir(src)):
        if fname.endswith(".py") and fname != "__init__.py" and \
                not fname.startswith("test_"):
            with open(os.path.join(src, fname)) as fh:
                yield fname[:-3], ast.parse(fh.read(), fname)


def _modules(src=os.path.dirname(penexp.__file__)):
    for _, tree in _named_modules(src):
        yield tree


def _public_definitions():
    """Public top-level functions, classes and constants (names assigned at
    module level) of the package modules."""
    names = {_defined_name(top) for tree in _modules() for top in tree.body}
    return {name for name in names if name and not name.startswith("_")}


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
    unused = _public_definitions() - _used_names()
    # equality also catches an allowlist entry that has gained a caller
    assert unused == ALLOWED_UNUSED, \
        "public but unused in src/penexp: %s" % sorted(unused)


def _public_members():
    """Public methods, properties, class attributes and dataclass fields of
    the public top-level classes of the package modules."""
    members = set()
    for tree in _modules():
        for top in tree.body:
            if not isinstance(top, ast.ClassDef) or top.name.startswith("_"):
                continue
            for node in top.body:
                if isinstance(node, ast.FunctionDef):
                    members.add(node.name)
                elif isinstance(node, ast.AnnAssign) and \
                        isinstance(node.target, ast.Name):
                    members.add(node.target.id)
                else:
                    members.add(_defined_name(node))
    return {m for m in members if m and not m.startswith("_")}


def _read_members():
    """Attributes and keyword arguments read by the package and by the
    benchmark's own code (its tests excluded)."""
    bench = os.path.join(os.path.dirname(os.path.dirname(
        os.path.dirname(penexp.__file__))), "bench")
    read = set()
    for tree in list(_modules()) + list(_modules(bench)):
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.keyword):
                read.add(node.arg)
    return read


def test_every_class_member_is_read_outside_the_tests():
    unread = _public_members() - _read_members()
    # equality also catches an allowlist entry that has gained a reader
    assert unread == ALLOWED_UNREAD_MEMBERS, \
        "class members read only by tests: %s" % sorted(unread)


def _public_functions():
    """Public top-level functions, keyed module.function, and the public
    methods of public top-level classes, keyed module.Class.method."""
    for module, tree in _named_modules():
        for top in tree.body:
            if isinstance(top, ast.FunctionDef) and \
                    not top.name.startswith("_"):
                yield "%s.%s" % (module, top.name), top
            elif isinstance(top, ast.ClassDef) and \
                    not top.name.startswith("_"):
                for node in top.body:
                    if isinstance(node, ast.FunctionDef) and \
                            not node.name.startswith("_"):
                        yield "%s.%s.%s" % (module, top.name, node.name), node


def _unread_params():
    unread = set()
    for key, fn in _public_functions():
        args = fn.args
        params = args.posonlyargs + args.args + args.kwonlyargs + \
            [a for a in (args.vararg, args.kwarg) if a]
        read = {node.id for stmt in fn.body for node in ast.walk(stmt)
                if isinstance(node, ast.Name) and
                isinstance(node.ctx, ast.Load)}
        unread |= {"%s.%s" % (key, a.arg) for a in params
                   if a.arg not in ("self", "cls") and a.arg not in read}
    return unread


def test_every_parameter_is_read_in_its_body():
    # equality also catches an allowlist entry that has gained a reader
    unread = _unread_params()
    assert unread == set(ALLOWED_UNREAD_PARAMS), \
        "unread, or listed and read: %s" % sorted(
            unread ^ set(ALLOWED_UNREAD_PARAMS))


def test_no_module_calls_eigh():
    # the identity and AR(1) covariances, and the rank-one curvature built
    # on them, have their eigenpairs without LAPACK's eigh
    uses = [node.lineno for tree in _modules() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "eigh"
            or isinstance(node, ast.alias) and node.name.endswith("eigh")]
    assert uses == []


def test_package_root_is_its_docstring_alone():
    with open(penexp.__file__) as fh:
        body = ast.parse(fh.read()).body
    assert len(body) == 1 and isinstance(body[0], ast.Expr)


NUMPY_ONLY_RUN = """
import sys
import penexp
import penexp.cli
from penexp import losses, model, penalties, solver

cov = model.CovarianceModel.ar1(40, 0.5)
beta = model.flat_signal(40, 3, 0.25)
X = model.generate_design(cov, 200, "gaussian", seed=1)
y, e = losses.LOGISTIC.responses(X @ beta, 1.0, model.stream_rng(2, 1))
ds = model.Dataset(X, y, "logistic", "gaussian", e, beta, cov)
curv = losses.curvature_matrix(losses.LOGISTIC, cov, beta)
pen = penalties.GroupPenalty(0.05, model.GroupStructure(40, 1))
est = solver.fit_penalized(ds, losses.LOGISTIC, pen)
exp = solver.fit_expansion(ds, losses.LOGISTIC, curv, beta, pen)
assert est.converged and exp.converged
print(" ".join(m for m in sys.modules
               if m == "scipy" or m.startswith("scipy.")))
"""


def test_logistic_pipeline_imports_no_scipy():
    # a fresh interpreter, so nothing the tests imported can hide an import
    src = os.path.dirname(os.path.dirname(penexp.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", NUMPY_ONLY_RUN], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.split() == []


def _readme():
    with open(os.path.join(os.path.dirname(os.path.dirname(
            os.path.dirname(penexp.__file__))), "README.md")) as fh:
        return fh.read()


def test_readme_python_example_runs():
    # a fresh interpreter, as a reader of README would run it
    code = _readme().split("```python\n", 1)[1].split("```", 1)[0]
    src = os.path.dirname(os.path.dirname(penexp.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr


def test_readme_config_block_lists_every_config_key():
    # the ini block under "Experiment configs" is the config reference
    block = _readme().split("## Experiment configs", 1)[1]
    block = block.split("```ini\n", 1)[1].split("```", 1)[0]
    keys = {line.split("#", 1)[0].partition("=")[0].strip()
            for line in block.splitlines() if "=" in line.split("#", 1)[0]}
    assert keys == {f.name for f in fields(harness.ExperimentConfig)}


def test_readme_config_block_lists_every_kind_in_order():
    # the comments on the experiment and penalty lines are the kinds the
    # config accepts, in the order the code lists them, before any "; "
    block = _readme().split("## Experiment configs", 1)[1]
    block = block.split("```ini\n", 1)[1].split("```", 1)[0]
    comments = {line.partition("=")[0].strip():
                line.split("#", 1)[1].split(";", 1)[0]
                for line in block.splitlines() if "#" in line}
    for key, kinds in (("experiment", harness.EXPERIMENT_KINDS),
                       ("penalty", harness.PENALTY_KINDS)):
        listed = [k.strip() for k in comments[key].split("|")]
        assert listed == list(kinds), key


def test_readme_config_block_states_every_default():
    # each optional key's comment ends in "; default <value>", read by the
    # key's own converter; grid's () is refused, so a grid line is required
    block = _readme().split("## Experiment configs", 1)[1]
    block = block.split("```ini\n", 1)[1].split("```", 1)[0]
    stated = {}
    for line in block.splitlines():
        key = line.partition("=")[0].strip()
        m = re.search(r"; default (\S+)$", line.partition("#")[2].strip())
        if m:
            stated[key] = harness._FIELD_TYPES[key](m.group(1))
    defaults = {f.name: f.default for f in fields(harness.ExperimentConfig)
                if f.default is not MISSING and f.name != "grid"}
    assert stated == defaults


def test_readme_layout_table_lists_every_module():
    # the first column of the "Library layout" table is the package's
    # modules, the package root and __main__ aside
    section = _readme().split("## Library layout\n", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"^\| `(\w+)`", section, re.M)
    src = os.path.dirname(penexp.__file__)
    modules = {f[:-3] for f in os.listdir(src) if f.endswith(".py")}
    assert sorted(listed) == sorted(modules - {"__init__", "__main__"})


def test_readme_output_section_lists_every_record_column():
    # each bullet under "Output files" opens with a backticked list of the
    # columns it describes; together they are the header, in its order
    section = _readme().split("## Output files\n", 1)[1].split("\n## ", 1)[0]
    lists = re.findall(r"^- `([^`]*)`", section, re.M)
    listed = [c.strip() for cols in lists for c in cols.split(",")]
    assert listed == list(harness.RECORD_SCHEMA)


def test_readme_output_section_lists_every_timing_column():
    # the backticked list after "`timings.csv` (" is that file's header
    section = _readme().split("## Output files\n", 1)[1].split("\n## ", 1)[0]
    cols = section.split("`timings.csv` (", 1)[1].split(")", 1)[0]
    assert re.findall(r"`([^`]*)`", cols) == list(harness.TIMING_SCHEMA)


def test_readme_cli_section_lists_every_subcommand():
    # the "Subcommands:" sentence and the example block under "CLI" name
    # exactly the subcommands the parser has
    section = _readme().split("## CLI\n", 1)[1].split("\n## ", 1)[0]
    sentence = section.split("Subcommands:", 1)[1].split(".", 1)[0]
    listed = set(re.findall(r"`([a-z-]+)`", sentence))
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    shown = set(re.findall(r"^penexp ([a-z-]+)", block, re.M))
    [sub] = [a for a in cli.build_parser()._actions
             if isinstance(a, argparse._SubParsersAction)]
    assert listed == shown == set(sub.choices)
