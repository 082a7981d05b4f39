"""nhjc: exact spectrum, spin textures and spin-winding topology of the
Jaynes-Cummings model with complex (dissipative) parameters.

The package namespace is lazy (PEP 562): ``nhjc.X`` and ``from nhjc import X``
import the module that defines X on first use, so a caller loads only the
modules it uses (the closed-form spectrum and boundaries need no numpy).
"""

import importlib

__version__ = "0.1.0"

# module -> the public names the package re-exports from it
_EXPORTS = {
    "boundaries": ("BoundaryPoint", "all_boundaries", "boundary"),
    "errors": ("AntiWindingError", "DegenerateStateError", "ExceptionalPointError", "GridTooCoarseError",
               "NhjcError", "NoBoundaryError", "NodeCountError", "OnBoundaryError",
               "SweepConsistencyError", "SweepSpecError", "UndefinedTiltError", "ValidationError"),
    "oscillator": ("domain_cutoff", "hermite_roots", "phi", "phi_pair", "phi_ratio"),
    "params": ("ComplexComposites", "LevelIndex", "ModelParams", "coupling_scale", "load_params",
               "params_from_dict"),
    "spectrum": ("BlockQuantities", "EigenSolution", "GapPair", "block_quantities", "eigen_solution", "gaps"),
    "sweep": ("Axis", "SweepResult", "SweepSpec", "run_sweep"),
    "texture": ("NodeSet", "SpinTexture", "TextureCoefficients", "nodes", "standard_grid",
                "texture_closed_form", "texture_coefficients", "texture_from_wavefunctions",
                "wavefunction_components"),
    "topology": ("TiltingAngle", "tilting_angle", "winding_direction", "winding_report"),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_MODULE_OF])


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name in _MODULE_OF:
        # read through the module on every access, so a patched module attribute shows here too
        return getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
