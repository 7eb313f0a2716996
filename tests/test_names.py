"""Every module-level function and class of the package has a use.

Each one must be named somewhere besides its own definition: in src/,
tests/, demos/, perfbench/ or the README.  A name that nothing mentions
is code that neither the CLI, the public API nor the tests need.
"""

import ast
import collections
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEARCHED = ("src", "tests", "demos", "perfbench")


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
