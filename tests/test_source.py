"""Checks on the package source itself, read as syntax trees."""

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

from gaplab.config import DEFAULTS

SRC = Path(__file__).resolve().parents[1] / "src" / "gaplab"

# Top-level definitions that no module of the package reads, each with the
# reason it stays.
UNREAD = {
    "ltqo.ascent_lower_bound": "the tests' reference for the one-pass "
                               "witness bracket, and a span the benchmark "
                               "times",
    "interaction.to_json": "the writer of the `file:` model format that "
                           "README names",
}


def _reads(node) -> list:
    """Every name ``node`` reads, once per read: as a name, an attribute
    or an import."""
    names = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.append(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.append(sub.attr)
        elif isinstance(sub, ast.alias):
            names.append(sub.name)
    return names


def test_importing_the_package_loads_no_module():
    """A fresh ``import gaplab`` loads no module of the package: its
    namespace is its docstring, and every reader imports the modules it
    needs by name."""
    code = ("import sys, gaplab; print(sorted(m for m in sys.modules "
            "if m.startswith('gaplab.')))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_every_top_level_definition_is_read_somewhere():
    """Every top-level function and class of a module is read by some
    statement of the package other than its own definition, or is listed
    in ``UNREAD`` with its reason; a listed one that gains a reader leaves
    the list."""
    statements, defined = [], []
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            statements.append((stmt, set(_reads(stmt))))
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                defined.append((f"{path.stem}.{stmt.name}", stmt))
    unread = {qualname for qualname, node in defined
              if not any(node.name in names for stmt, names in statements
                         if stmt is not node)}
    assert not unread - set(UNREAD), \
        f"nothing reads {sorted(unread - set(UNREAD))}"
    assert not set(UNREAD) - unread, \
        f"now read, so no longer exempt: {sorted(set(UNREAD) - unread)}"


# Methods that no statement of the package reads, each with the reason it
# stays.
UNREAD_METHODS = {}


def test_every_method_is_read_somewhere():
    """Every method of every class of the package, dunders aside, is read
    by some statement of the package outside its own definition (as a
    name or an attribute), or is listed in ``UNREAD_METHODS`` with its
    reason; a listed one that gains a reader leaves the list.  A method
    only the tests call is code no run of the program reaches."""
    reads, methods = Counter(), []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        reads.update(_reads(tree))
        methods += [(f"{path.stem}.{cls.name}.{node.name}", node)
                    for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                    for node in cls.body
                    if isinstance(node, (ast.FunctionDef,
                                         ast.AsyncFunctionDef))
                    and not node.name.startswith("__")]
    unread = {qualname for qualname, node in methods
              if reads[node.name] == _reads(node).count(node.name)}
    listed = set(UNREAD_METHODS)
    assert not unread - listed, f"nothing reads {sorted(unread - listed)}"
    assert not listed - unread, \
        f"now read, so no longer exempt: {sorted(listed - unread)}"


# Annotated class fields that no statement of the package reads, each with
# the reason it stays.
UNREAD_FIELDS = {
    f"spectral_flow.ThetaAssembly.{name}": "the tests compare the collected "
    "pieces with oracles.theta_whole; flow_bundle drops them"
    for name in ("theta_beta", "theta_alpha")}


def test_every_field_is_read_somewhere():
    """Every annotated field of every class of the package is read as an
    attribute by some statement of the package, or is listed in
    ``UNREAD_FIELDS`` with its reason; a listed one that gains a reader
    leaves the list.  A field nothing reads is a value every run computes
    and throws away."""
    reads, fields = Counter(), []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        reads.update(node.attr for node in ast.walk(tree)
                     if isinstance(node, ast.Attribute)
                     and isinstance(node.ctx, ast.Load))
        fields += [(f"{path.stem}.{cls.name}.{stmt.target.id}",
                    stmt.target.id)
                   for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                   for stmt in cls.body if isinstance(stmt, ast.AnnAssign)
                   and isinstance(stmt.target, ast.Name)]
    unread = {qualname for qualname, name in fields if not reads[name]}
    listed = set(UNREAD_FIELDS)
    assert not unread - listed, f"nothing reads {sorted(unread - listed)}"
    assert not listed - unread, \
        f"now read, so no longer exempt: {sorted(listed - unread)}"


# Keyword parameters with a default that no call in the package passes,
# each with the reason the default stays.
UNPASSED = {
    "cli.main.argv": "the command line, read from sys.argv when main runs "
                     "as the gaplab script",
    **{f"ltqo.ascent_lower_bound.{name}": "the ascent is the tests' "
       "reference, run only from them" for name in ("seed", "restarts",
                                                    "iters")},
}


def _defaults(tree, prefix, method=False):
    """``(qualname, function name, parameter, positional index)`` of every
    parameter with a default of every function in ``tree``, methods and
    nested functions too; a method's index counts its arguments after
    ``self`` (the package has no static method), and a keyword-only
    parameter's is ``None``."""
    found = []
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.ClassDef):
            found += _defaults(node, f"{prefix}{node.name}.", method=True)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args, name = node.args, f"{prefix}{node.name}"
            pos = args.posonlyargs + args.args
            first = len(pos) - len(args.defaults)
            found += [(f"{name}.{arg.arg}", node.name, arg.arg, i - method)
                      for i, arg in enumerate(pos) if i >= first]
            found += [(f"{name}.{arg.arg}", node.name, arg.arg, None)
                      for arg, d in zip(args.kwonlyargs, args.kw_defaults)
                      if d is not None]
            found += _defaults(node, f"{name}.")
        else:
            found += _defaults(node, prefix, method)
    return found


def _passes(call, param, index) -> bool:
    """Whether ``call`` passes ``param``: by keyword, by position at
    ``index``, or through a ``*`` or ``**`` splat."""
    if any(kw.arg in (param, None) for kw in call.keywords):
        return True
    return index is not None and (
        len(call.args) > index
        or any(isinstance(arg, ast.Starred) for arg in call.args))


def test_every_default_is_passed_somewhere():
    """Every parameter with a default, of every function and method of the
    package, is passed by some call inside the package (to a function of
    that name), by keyword or by position, or is listed in ``UNPASSED``
    with its reason; a listed one that gains a caller leaves the list.  A
    default only the tests change is an option no run of the program
    sets."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    calls = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", getattr(func, "attr", None))
                calls.setdefault(name, []).append(node)
    unpassed = {qualname
                for module, tree in trees.items()
                for qualname, name, param, index in _defaults(tree,
                                                              f"{module}.")
                if not any(_passes(call, param, index)
                           for call in calls.get(name, []))}
    assert not unpassed - set(UNPASSED), \
        f"no call passes {sorted(unpassed - set(UNPASSED))}"
    assert not set(UNPASSED) - unpassed, \
        f"now passed, so no longer exempt: {sorted(set(UNPASSED) - unpassed)}"


# Parameters named after a config key that keep a default, each with the
# reason it stays.
CONFIG_DEFAULTS = {
    "config.load_config.seed": "None means no --seed was given",
    "ltqo.ascent_lower_bound.seed": "the ascent is the tests' reference, "
                                    "run only from them",
}


def _config_keys(tree: dict) -> set:
    """Every key of the config tree ``tree``, at every depth."""
    keys = set(tree)
    for value in tree.values():
        if isinstance(value, dict):
            keys |= _config_keys(value)
    return keys


def _field_defaults(tree, prefix) -> list:
    """``(qualname, field)`` of every annotated class field of ``tree``
    that has a default, in classes at any depth."""
    return [(f"{prefix}{cls.name}.{stmt.target.id}", stmt.target.id)
            for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
            for stmt in cls.body if isinstance(stmt, ast.AnnAssign)
            and isinstance(stmt.target, ast.Name) and stmt.value is not None]


def test_no_parameter_named_after_a_config_key_has_a_default():
    """A parameter or an annotated class field named after a ``DEFAULTS``
    key, or ``seed``, has no default, or is listed in ``CONFIG_DEFAULTS``
    with its reason: the config sets its value once, and every caller
    passes it, so no second default can drift from the config's."""
    names = _config_keys(DEFAULTS) | {"seed"}
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found |= {qualname for qualname, _, param, _ in _defaults(
            tree, f"{path.stem}.") if param in names}
        found |= {qualname for qualname, name in _field_defaults(
            tree, f"{path.stem}.") if name in names}
    assert not found - set(CONFIG_DEFAULTS), \
        f"defaults repeat the config: {sorted(found - set(CONFIG_DEFAULTS))}"
    assert not set(CONFIG_DEFAULTS) - found, \
        f"no longer defaulted: {sorted(set(CONFIG_DEFAULTS) - found)}"


def test_only_models_calls_the_orbital_closed_forms():
    """The orbital chain's closed forms are read through its ``Model``, its
    kernel and its certificate: no module but ``models.py`` calls
    ``auxiliary_basis``, ``kernel_data`` or ``orbital_spectrum``."""
    closed = {"auxiliary_basis", "kernel_data", "orbital_spectrum"}
    for path in sorted(SRC.glob("*.py")):
        called = {getattr(node.func, "id", getattr(node.func, "attr", None))
                  for node in ast.walk(ast.parse(path.read_text(
                      encoding="utf-8"))) if isinstance(node, ast.Call)}
        assert path.name == "models.py" or not called & closed, path.name
