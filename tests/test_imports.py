"""Every name an ``import`` binds is read in its own file.

An import nothing reads hides which modules a file really depends on, and
it outlives the code that needed it. The rule is checked with ``ast`` over
every Python file of the package, the tests and the tools.
"""
import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = sorted(path for folder in ("src/mcm", "tests", "tools")
                 for path in (ROOT / folder).rglob("*.py"))


def unused_imports(source: str) -> list:
    """``(line, name)`` of each name an import in ``source`` binds that the
    file never reads. A name listed in ``__all__`` counts as read;
    ``from __future__`` imports bind nothing."""
    tree = ast.parse(source)
    bound, read = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name != "*":
                    bound.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_the_rule_reads_names_attributes_and_all():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "import json as js\n"
              "from math import inf, pi\n"
              "from numpy import ndarray\n"
              "__all__ = ['ndarray']\n"
              "x = os.path.join(js.dumps(pi))\n"
              "inf = 1\n")
    assert unused_imports(source) == [(4, "inf")]


def test_no_file_imports_a_name_it_never_reads():
    found = {str(path.relative_to(ROOT)): names for path in SOURCES
             if (names := unused_imports(path.read_text(encoding="utf-8")))}
    assert found == {}
