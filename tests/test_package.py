import ast
import importlib
import pkgutil

import saddlesolve


def test_public_surface():
    """Every name in a module's __all__ resolves, so ``import *`` works, and
    every name __init__.py re-exports is in its module's __all__."""
    modules = {
        m.name: importlib.import_module(f"saddlesolve.{m.name}")
        for m in pkgutil.iter_modules(saddlesolve.__path__)
    }
    for name, module in modules.items():
        assert len(set(module.__all__)) == len(module.__all__), name
        namespace = {}
        exec(f"from saddlesolve.{name} import *", namespace)
        assert set(module.__all__) <= namespace.keys(), name
    with open(saddlesolve.__file__) as fh:
        tree = ast.parse(fh.read())
    reexports = [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]
    assert reexports
    assert [
        f"{module}.{name}" for module, name in reexports if name not in modules[module].__all__
    ] == []
