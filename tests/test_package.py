import ast
import dataclasses
import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import liectrl


def test_library_imports_without_scipy():
    # numpy is the only runtime dependency: importing every module loads no
    # scipy, and no json either, as the library reads and writes no file format
    code = ("import importlib, pkgutil, sys, liectrl\n"
            "names = [m.name for m in pkgutil.iter_modules(liectrl.__path__)]\n"
            "for name in names:\n"
            "    importlib.import_module('liectrl.' + name)\n"
            "loaded = [sorted(k for k in sys.modules if k.split('.')[0] == top)\n"
            "          for top in ('scipy', 'json')]\n"
            "import json\n"
            "print(json.dumps([names, *loaded]))")
    env = dict(os.environ, PYTHONPATH=str(Path(liectrl.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    names, scipy_modules, json_modules = json.loads(out.stdout)
    assert sorted(names) == ["closure", "models", "pauli", "propagation", "sectors"]
    assert scipy_modules == []
    assert json_modules == []


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


def public_members():
    # (module, qualname, object) of every public function, class and method
    # (public: no leading underscore, so constructors are left out)
    for module in ("closure", "models", "pauli", "propagation", "sectors"):
        mod = importlib.import_module(f"liectrl.{module}")
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                yield module, name, obj
            elif inspect.isclass(obj):  # classmethods through __func__
                yield module, name, obj
                for attr, raw in vars(obj).items():
                    fn = getattr(raw, "__func__", raw)
                    if not attr.startswith("_") and inspect.isfunction(fn):
                        yield module, f"{name}.{attr}", fn


def test_public_options_pinned():
    # every parameter with a default on a public function or method; a new
    # option needs an edit here
    found = [f"{module}.{qualname}({p.name})" for module, qualname, fn in public_members()
             if inspect.isfunction(fn) for p in inspect.signature(fn).parameters.values()
             if p.default is not inspect.Parameter.empty]
    assert sorted(found) == [
        "closure.check_universality_qubit(break_pattern)",
        "closure.uniform_qubit_generators(break_pattern)",
        "models.AtomGeometry.chain(c6)",
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
        "sectors.build_spinful_controls(a)",
        "sectors.build_spinful_controls(b)",
    ]


def test_public_names_pinned():
    # every public function, class and method per module, by the walker above;
    # a new or restored entry point needs an edit here
    found: dict[str, list[str]] = {}
    for module, qualname, _ in public_members():
        found.setdefault(module, []).append(qualname)
    assert {module: sorted(names) for module, names in found.items()} == {
        "closure": [
            "ClosureError", "ClosureResult", "ClosureResult.contains", "GeneratorSet",
            "check_universality_qubit", "close", "reflection_sector_check",
            "uniform_qubit_generators",
        ],
        "models": [
            "AtomGeometry", "AtomGeometry.chain", "AtomGeometry.interaction", "ModelError",
            "NoiseModel", "NoiseModel.fitted", "NoiseModel.realized_controls", "basis_bits",
            "mhz", "rydberg_terms", "to_mhz", "zxz_hamiltonian",
        ],
        "pauli": [
            "PauliError", "PauliSum", "PauliSum.coeff", "PauliSum.from_label",
            "PauliSum.hs_inner", "PauliSum.reflection_image", "PauliSum.single_site",
            "PauliSum.to_dense", "arrays_to_sum", "commutator", "commutator_arrays",
            "reflect_masks", "sum_to_arrays",
        ],
        "propagation": [
            "ConstraintProfile", "ControlPulse", "ControlPulse.sample", "ControlPulse.validate",
            "DensityState", "DensityState.hermiticity_defect", "DensityState.min_eigenvalue",
            "DensityState.trace", "ObservableRecord", "PropagationError", "PulseError",
            "observables", "propagate_lindblad", "propagate_unitary",
        ],
        "sectors": [
            "SectorBasis", "SectorBasis.build", "SectorError", "build_hubbard_chain_controls",
            "build_nnn_lattice", "build_spinful_controls", "hopping", "lattice_mode", "number_op",
            "transfer", "verify_nnn_identity",
        ],
    }


def test_public_dataclass_fields_pinned():
    # the declared fields, in order, of every public dataclass; a new or
    # restored field needs an edit here
    found = {f"{module}.{qualname}": [f.name for f in dataclasses.fields(obj)]
             for module, qualname, obj in public_members()
             if inspect.isclass(obj) and dataclasses.is_dataclass(obj)}
    assert found == {
        "closure.GeneratorSet": ["representation", "generators", "label", "basis"],
        "closure.ClosureResult": [
            "dimension", "depth_reached", "universality", "representation", "theoretical_cap",
            "n_qubits", "elapsed_s", "pattern_reflection_symmetric", "primes", "rank_margin",
            "certificate", "_slices", "_runs", "_terms",
        ],
        "models.AtomGeometry": ["positions", "c6"],
        "models.NoiseModel": [
            "gamma", "delta_detuning_shift", "delta_rabi_shift", "rabi_scale_error", "metadata",
        ],
        "propagation.ConstraintProfile": [
            "omega_max", "delta_range", "slew_omega", "slew_delta", "dt_min",
        ],
        "propagation.ControlPulse": ["times", "omegas", "deltas"],
        "propagation.DensityState": ["rho", "time"],
        "propagation.ObservableRecord": ["n_sites", "expect_n", "expect_z", "zz", "connected"],
        "sectors.SectorBasis": ["kind", "n_modes", "n_particles", "states", "index", "_occ"],
    }
