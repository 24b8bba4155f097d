"""Stand-ins for a linter's unused-import and dead-code rules over the package's modules."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "graphkd"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
SOURCES = sorted(PACKAGE.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by module-level imports that the module neither uses nor
    lists in ``__all__``."""
    tree = ast.parse(source)
    imported = []
    exported: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported = set(ast.literal_eval(node.value))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in used and name not in exported]


def test_check_flags_an_unused_import():
    source = "import os\nfrom dataclasses import asdict, dataclass as dc\n__all__ = ['dc']\n"
    assert unused_imports(source) == ["os", "asdict"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def dead_private_definitions(sources: dict[str, str]) -> list[str]:
    """``module:name`` for each module-level private function, class or constant
    (a ``_name``, not a ``__dunder__``) that no module of ``sources`` reads,
    imports or reaches as an attribute."""
    defined, referenced = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                continue
            defined += [(module, name) for name in names
                        if name.startswith("_") and not name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name)
    return [f"{module}:{name}" for module, name in defined if name not in referenced]


def test_check_flags_a_dead_private_definition():
    sources = {
        "a.py": "_USED = 1\n_DEAD = 2\ndef _helper():\n    return _USED\n"
                "class _Gone:\n    pass\n__all__ = []\n",
        "b.py": "from .a import _helper\n",
    }
    assert dead_private_definitions(sources) == ["a.py:_DEAD", "a.py:_Gone"]


def test_no_dead_private_definitions():
    assert dead_private_definitions({p.name: p.read_text() for p in SOURCES}) == []
