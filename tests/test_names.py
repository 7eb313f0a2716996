"""Every module-level function and class of the package has a use, and
so does every name a package module imports.

Each definition must be named somewhere besides its own definition: in
src/, tests/, demos/, perfbench/ or the README.  A name that nothing
mentions is code that neither the CLI, the public API nor the tests
need.  An import must be used in the module that makes it.  And the
package stays within a line budget: a change that needs more lines
raises the budget, and says so.
"""

import ast
import collections
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEARCHED = ("src", "tests", "demos", "perfbench")
# Lines of src/oseq/*.py as `wc -l` counts them.  A change that adds
# lines raises this figure in the same commit and declares it.
LINE_BUDGET = 2707


def module_level_definitions():
    """(module file, name) of each top-level def and class in src/oseq."""
    for path in sorted((ROOT / "src" / "oseq").glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                yield path.name, node.name


def test_every_module_level_definition_is_named_elsewhere():
    # Count every word once, rather than search the tree once per name.
    texts = [path.read_text(encoding="utf-8") for folder in SEARCHED
             for path in sorted((ROOT / folder).rglob("*.py"))]
    texts.append((ROOT / "README.md").read_text(encoding="utf-8"))
    words = collections.Counter(re.findall(r"\w+", "\n".join(texts)))
    definitions = list(module_level_definitions())
    defined = collections.Counter(name for _, name in definitions)
    assert len(definitions) > 100
    unused = [f"{module}:{name}" for module, name in definitions
              if words[name] <= defined[name]]
    assert unused == []


def imported_and_used(tree):
    """The names a module binds by import, and the names it uses: in its
    code, in string annotations and, as re-exports, in __all__."""
    imported, used, strings = set(), set(), []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) != "__future__":
                imported.update((alias.asname or alias.name).split(".")[0]
                                for alias in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            strings.append(node.returns)
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            strings.append(node.annotation)
        elif isinstance(node, ast.Assign) and any(
                getattr(target, "id", None) == "__all__" for target in node.targets):
            used.update(item.value for item in node.value.elts)
    for annotation in filter(None, strings):
        for part in ast.walk(annotation):
            if isinstance(part, ast.Constant) and isinstance(part.value, str):
                used.update(name.id for name in ast.walk(ast.parse(part.value))
                            if isinstance(name, ast.Name))
    return imported, used


def test_every_import_is_used_in_its_module():
    unused = []
    for path in sorted((ROOT / "src" / "oseq").glob("*.py")):
        imported, used = imported_and_used(ast.parse(path.read_text(encoding="utf-8")))
        unused += [f"{path.name}:{name}" for name in sorted(imported - used)]
    assert unused == []


def test_package_stays_within_its_line_budget():
    lines = sum(path.read_bytes().count(b"\n")
                for path in (ROOT / "src" / "oseq").glob("*.py"))
    assert lines <= LINE_BUDGET, (
        f"src/oseq/*.py holds {lines} lines, over the budget of {LINE_BUDGET}")
