import ast
import sys
from pathlib import Path

import blockdag


def test_every_exported_name_resolves():
    assert [name for name in blockdag.__all__ if not hasattr(blockdag, name)] == []
    assert len(set(blockdag.__all__)) == len(blockdag.__all__)


def test_package_imports_only_the_standard_library():
    paths = sorted(Path(blockdag.__file__).parent.glob("*.py"))
    assert paths
    outside = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [
                f"{path.name}: {name}"
                for name in names
                if name.split(".")[0] not in sys.stdlib_module_names
            ]
    assert outside == []
