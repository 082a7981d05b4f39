import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import nhjc

# the package namespace: the names of its eight layer modules and what it
# re-exports from them
NAMES = [
    "AntiWindingError", "Axis", "BlockQuantities", "BoundaryPoint", "ComplexComposites",
    "DegenerateStateError", "EigenSolution", "ExceptionalPointError", "GapPair",
    "GridTooCoarseError", "LevelIndex", "ModelParams", "NhjcError", "NoBoundaryError",
    "NodeCountError", "NodeSet", "OnBoundaryError", "SpinTexture",
    "SweepConsistencyError", "SweepResult", "SweepSpec", "SweepSpecError", "TextureCoefficients",
    "TiltingAngle", "UndefinedTiltError", "ValidationError", "all_boundaries",
    "block_quantities", "boundaries", "boundary", "coupling_scale",
    "domain_cutoff", "eigen_solution", "errors", "gaps", "hermite_roots", "load_params", "nodes",
    "oscillator", "params", "params_from_dict", "phi", "phi_pair", "phi_ratio", "run_sweep",
    "spectrum", "standard_grid", "sweep", "texture", "texture_closed_form", "texture_coefficients",
    "texture_from_wavefunctions", "tilting_angle", "topology",
    "wavefunction_components", "winding_direction", "winding_report",
]


def test_namespace_is_pinned_and_every_name_resolves():
    assert nhjc.__all__ == NAMES and len(NAMES) == 57
    for name in NAMES:
        value = getattr(nhjc, name)
        if isinstance(value, types.ModuleType):
            assert value.__name__ == f"nhjc.{name}"
        else:
            module = sys.modules[value.__module__]
            assert value.__module__.startswith("nhjc.") and getattr(module, name) is value
    namespace = {}
    exec("from nhjc import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == NAMES
    with pytest.raises(AttributeError, match="no_such_name"):
        nhjc.no_such_name  # noqa: B018
    assert not hasattr(nhjc, "verify_suite")


def test_importing_the_package_loads_no_module_of_it():
    root = Path(__file__).resolve().parents[1]
    code = ("import sys, nhjc; "
            "print(sorted(m for m in sys.modules if m.startswith(('nhjc.', 'numpy'))))")
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True)
    assert proc.stdout.splitlines()[-1] == "[]"
