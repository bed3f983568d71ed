import ast
import inspect
import sys
from pathlib import Path

import blockdag
import blockdag.bench


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


def _benchmark_references():
    """Every ``bd.<name>`` and ``bench.<name>`` in perfbench/run.py, with its call.

    The benchmark binds the package to ``bd`` (also as ``self.bd`` or
    ``run.bd``) and ``blockdag.bench`` to ``bench``. Each reference comes as
    (line, owner, name, call), where call is the ``ast.Call`` that calls it
    or None when the name is only read.
    """
    path = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    called = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        owner = node.value
        owner_name = owner.id if isinstance(owner, ast.Name) else getattr(owner, "attr", None)
        if owner_name in ("bd", "bench"):
            yield node.lineno, owner_name, node.attr, called.get(id(node))


def test_benchmark_calls_bind_to_the_package():
    modules = {"bd": blockdag, "bench": blockdag.bench}
    calls = 0
    unbound = []
    for line, owner, name, call in _benchmark_references():
        target = getattr(modules[owner], name, None)
        if target is None:
            unbound.append(f"line {line}: {owner}.{name} does not exist")
            continue
        if call is None or any(isinstance(a, ast.Starred) for a in call.args):
            continue
        keywords = [k.arg for k in call.keywords]
        if None in keywords:
            continue
        calls += 1
        try:
            inspect.signature(target).bind(*call.args, **dict.fromkeys(keywords))
        except TypeError as exc:
            unbound.append(f"line {line}: {owner}.{name}: {exc}")
    assert unbound == []
    assert calls > 20
