"""Every name the package exports is library code, not a test oracle.

Each name that ``selweight/__init__.py`` imports from a module of the
package must be referenced by code in ``src/selweight/`` outside its own
top-level definition, or be named in a code span of README.md.  Import
statements and docstrings are not references.  A definition that fails the
rule does not count as a reference either, so a helper type that only a
test oracle uses fails with it.  A function that only the tests call
belongs in the tests, next to its callers.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "selweight"


def exported_names():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return {alias.asname or alias.name
            for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names}


def _defined_names(statement):
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef)):
        return {statement.name}
    if isinstance(statement, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
        targets = (statement.targets if isinstance(statement, ast.Assign)
                   else [statement.target])
        return {node.id for target in targets for node in ast.walk(target)
                if isinstance(node, ast.Name)}
    return set()


def _referenced_names(statement):
    names = set()
    for node in ast.walk(statement):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def top_level_statements():
    """(names a statement defines, names it references) for every top-level
    statement of the package's modules other than ``__init__.py``."""
    statements = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for statement in tree.body:
            if isinstance(statement, (ast.Import, ast.ImportFrom)):
                continue
            statements.append((_defined_names(statement),
                               _referenced_names(statement)))
    return statements


def readme_names():
    """The identifiers inside README.md's code spans and code blocks."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    code = re.findall(r"```.*?```|`[^`\n]+`", text, flags=re.DOTALL)
    return set(re.findall(r"[A-Za-z_][A-Za-z0-9_]*", " ".join(code)))


def unused_exports():
    """The exported names that fail the rule, found by removing failing
    definitions until the rest all pass."""
    exports = exported_names() - readme_names()
    statements = top_level_statements()
    unused = set()
    while True:
        counted = [references - defines for defines, references in statements
                   if not defines & unused]
        failing = {name for name in exports - unused
                   if not any(name in references for references in counted)}
        if not failing:
            return unused
        unused |= failing


def test_every_export_has_a_caller_in_the_package_or_is_documented():
    assert unused_exports() == set(), (
        "exported but referenced only by the tests: move these next to "
        "their tests, or name them in README.md")
