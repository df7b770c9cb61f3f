"""Checks on the package source itself, read as syntax trees."""

import ast
from pathlib import Path

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


def _read_names(node) -> set:
    """Every name ``node`` reads: as a name, an attribute or an import."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name)
    return names


def test_every_top_level_definition_is_read_somewhere():
    """Every top-level function and class of a module (``__init__.py``,
    which only re-exports, aside) is read by some statement of the package
    other than its own definition, or is listed in ``UNREAD`` with its
    reason; a listed one that gains a reader leaves the list."""
    statements, defined = [], []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            statements.append((stmt, _read_names(stmt)))
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
