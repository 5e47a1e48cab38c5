import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import liectrl


def test_library_imports_without_scipy():
    # numpy is the only runtime dependency: importing every module loads no scipy
    code = ("import importlib, json, pkgutil, sys, liectrl\n"
            "names = [m.name for m in pkgutil.iter_modules(liectrl.__path__)]\n"
            "for name in names:\n"
            "    importlib.import_module('liectrl.' + name)\n"
            "print(json.dumps([names, sorted(k for k in sys.modules if k.split('.')[0] == 'scipy')]))")
    env = dict(os.environ, PYTHONPATH=str(Path(liectrl.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    names, scipy_modules = json.loads(out.stdout)
    assert sorted(names) == ["closure", "models", "pauli", "propagation", "sectors"]
    assert scipy_modules == []


def test_traced_names_resolve():
    # the benchmark's tracer reports a traced name that no longer resolves as
    # absent and drops its metrics; read its list without importing bench/
    tree = ast.parse((Path(__file__).parents[1] / "bench" / "tracer.py").read_text())
    traced = next(ast.literal_eval(node.value) for node in tree.body if isinstance(node, ast.Assign)
                  and [getattr(t, "id", None) for t in node.targets] == ["TRACED"])
    assert traced
    for name in traced:
        module, *attrs = name.split(".")
        obj = importlib.import_module(f"liectrl.{module}")
        for attr in attrs:
            obj = getattr(obj, attr)  # AttributeError names the missing member
        assert callable(obj), name
