"""The runtime imports nothing but the standard library and itself."""

import ast
import os
import sys

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                   "src", "equisyz")


def test_runtime_imports_are_relative_or_stdlib():
    files = sorted(f for f in os.listdir(SRC) if f.endswith(".py"))
    assert "polyring.py" in files
    outside = []
    for name in files:
        with open(os.path.join(SRC, name)) as fh:
            tree = ast.parse(fh.read(), name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                mods = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                mods = [node.module]
            else:
                continue
            outside += ["%s imports %s" % (name, mod) for mod in mods
                        if mod.split(".")[0] not in sys.stdlib_module_names]
    assert outside == []
