import ast
import importlib
import inspect
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


def test_public_options_pinned():
    # every parameter with a default on a public function or method (public:
    # no leading underscore, so constructors are left out); a new option needs
    # an edit here
    found = []
    for module in ("closure", "models", "pauli", "propagation", "sectors"):
        mod = importlib.import_module(f"liectrl.{module}")
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                members = [(name, obj)]
            elif inspect.isclass(obj):  # classmethods through __func__
                members = [(f"{name}.{attr}", getattr(raw, "__func__", raw))
                           for attr, raw in vars(obj).items() if not attr.startswith("_")]
            else:
                continue
            for qualname, fn in members:
                if inspect.isfunction(fn):
                    found += [f"{module}.{qualname}({p.name})"
                              for p in inspect.signature(fn).parameters.values()
                              if p.default is not inspect.Parameter.empty]
    assert sorted(found) == [
        "closure.ClosureResult.contains(tol)",
        "closure.check_universality_qubit(break_pattern)",
        "closure.uniform_qubit_generators(break_pattern)",
        "models.AtomGeometry.chain(c6)",
        "models.zxz_hamiltonian(j_eff)",
        "pauli.PauliSum.from_label(coeff)",
        "pauli.PauliSum.single_site(coeff)",
        "pauli.commutator_arrays(labels)",
        "propagation.ControlPulse.validate(profile)",
        "propagation.observables(initial_state)",
        "propagation.propagate_lindblad(dt)",
        "propagation.propagate_lindblad(force)",
        "propagation.propagate_lindblad(initial_state)",
        "propagation.propagate_lindblad(profile)",
        "propagation.propagate_unitary(force)",
        "propagation.propagate_unitary(noise)",
        "propagation.propagate_unitary(profile)",
        "propagation.propagate_unitary(substeps)",
        "propagation.unitary_trajectory(force)",
        "propagation.unitary_trajectory(noise)",
        "propagation.unitary_trajectory(profile)",
        "propagation.unitary_trajectory(substeps)",
        "sectors.build_spinful_controls(a)",
        "sectors.build_spinful_controls(b)",
    ]
