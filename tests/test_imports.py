import ast
from pathlib import Path

import slowent

PACKAGE = Path(slowent.__file__).parent


def unused_imports(source: str) -> list[str]:
    """Names bound by module-level imports that the module never reads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


def test_unused_imports_detects_unread_names():
    source = "from __future__ import annotations\nimport os.path\nfrom typing import Callable, Sequence\nx: Sequence[int]\n"
    assert unused_imports(source) == ["os", "Callable"]


def test_every_module_import_is_used():
    # __init__.py imports its submodules to re-export them
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = {p.name: names for p in modules if (names := unused_imports(p.read_text()))}
    assert unused == {}
