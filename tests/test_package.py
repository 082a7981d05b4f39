import ast
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


def _located_nodes(path: Path) -> list:
    """Each node of a module, with where it is: "module.function" of the
    innermost function holding it, or "module.<module>"."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    function = {}
    for node in ast.walk(tree):  # outer functions first, so the innermost one wins
        if isinstance(node, ast.FunctionDef):
            function.update((inner, node.name) for inner in ast.walk(node))
    return [(node, f"{path.stem}.{function.get(node, '<module>')}") for node in ast.walk(tree)]


def _batching_outside_its_home(path: Path) -> list[str]:
    """The range(0, ...) chunk loops and assignments to an error's index in a
    module, each as "module.function: what", but for those of the batching
    policy (params) and ratio_roots' stacks of Jacobi matrices (oscillator)."""
    found = []
    for node, at in _located_nodes(path):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "range"
                and len(node.args) > 1 and isinstance(node.args[0], ast.Constant) and node.args[0].value == 0
                and path.stem != "params" and at != "oscillator.ratio_roots"):
            found.append(f"{at}: chunk loop")
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AugAssign) else [])
        if (any(isinstance(t, ast.Attribute) and t.attr == "index" and ast.unparse(t.value) != "self" for t in targets)
                and at != "params.batch_index"):
            found.append(f"{at}: error index remap")
    return found


def test_every_pass_over_a_grid_chunks_and_remaps_through_the_batching_policy():
    # params.chunks and params.batch_index are the one batching policy: a
    # hand-written chunk loop or index remap elsewhere drifts from it
    source = Path(__file__).resolve().parents[1] / "src" / "nhjc"
    assert [hit for path in sorted(source.glob("*.py")) for hit in _batching_outside_its_home(path)] == []


def _column_names_outside_the_table(path: Path, columns) -> list[str]:
    """Each string constant of a module that names a sweep column, as
    "line: name", but for those inside the table of columns (_COLUMNS);
    a docstring never equals a name."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    table = {id(inner) for node in ast.walk(tree) if isinstance(node, ast.Assign)
             and any(isinstance(t, ast.Name) and t.id == "_COLUMNS" for t in node.targets)
             for inner in ast.walk(node.value)}
    return [f"{line}: {name}" for line, name in sorted(
        (node.lineno, node.value) for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and node.value in columns and id(node) not in table)]


def test_each_sweep_column_is_named_only_in_its_table():
    # a column's meaning, reads and flagged values live in one row of
    # nhjc.sweep._COLUMNS: a name spelt out elsewhere in the module (a tuple
    # of names, a branch on one) is a second home that drifts from it
    from nhjc.sweep import OBSERVABLES

    source = Path(__file__).resolve().parents[1] / "src" / "nhjc" / "sweep.py"
    assert _column_names_outside_the_table(source, set(OBSERVABLES)) == []


def _input_reads_outside_the_readers(path: Path) -> list[str]:
    """The json.load and json.loads calls and the comparisons against N_MAX
    of a module, each as "module.function: what", but for the one loader
    (params.load_json), the one level check (params.check_level) and the
    guard of hermite_roots for direct calls."""
    found = []
    for node, at in _located_nodes(path):
        if (isinstance(node, ast.Call) and ast.unparse(node.func) in ("json.load", "json.loads")
                and at != "params.load_json"):
            found.append(f"{at}: {ast.unparse(node.func)}")
        if (isinstance(node, ast.Compare) and any(ast.unparse(side).split(".")[-1] == "N_MAX"
                                                  for side in [node.left, *node.comparators])
                and at not in ("params.check_level", "oscillator.hermite_roots")):
            found.append(f"{at}: N_MAX comparison")
    return found


def test_outside_input_is_read_only_by_the_readers_in_params():
    # nhjc.params.load_json, read_object, read_number and check_level are the
    # one reader of parameter files, sweep specs and levels: a second JSON
    # loader or level-range check elsewhere drifts from their rules
    root = Path(__file__).resolve().parents[1]
    paths = sorted((root / "src" / "nhjc").glob("*.py")) + sorted((root / "scripts").glob("*.py"))
    assert [hit for path in paths for hit in _input_reads_outside_the_readers(path)] == []


def _reference_copies(path: Path, states) -> list[str]:
    """The math.sqrt(0.9) and coupling_scale(0.9, 1.0) calls and the literal
    tuples or lists of the four winding states in a module, each as
    "module.function: what", but for those of their home
    (params.reference_config and params.winding_states)."""
    found = []
    for node, at in _located_nodes(path):
        if at in ("params.reference_config", "params.winding_states"):
            continue
        if (isinstance(node, ast.Call) and (ast.unparse(node.func).split(".")[-1], *map(ast.unparse, node.args))
                in (("sqrt", "0.9"), ("coupling_scale", "0.9", "1.0"))):
            found.append(f"{at}: {ast.unparse(node)}")
        if isinstance(node, (ast.Tuple, ast.List)):
            try:
                pairs = [tuple(pair) for pair in ast.literal_eval(node)]
            except (ValueError, TypeError, SyntaxError):  # not a literal, or not a sequence of pairs
                continue
            if pairs == states:
                found.append(f"{at}: the four winding states")
    return found


def test_the_reference_configuration_is_written_only_in_its_home():
    # nhjc.params.reference_config and winding_states hold the paper's
    # reference configuration and its four winding states: a copy written out
    # elsewhere drifts from them (tests/test_params.py tests coupling_scale
    # and g_rel on the numbers themselves)
    from nhjc.params import winding_states

    root = Path(__file__).resolve().parents[1]
    paths = [path for folder in ("src/nhjc", "scripts", "tests") for path in sorted((root / folder).glob("*.py"))
             if path.name != "test_params.py"]
    states = [(params.Gamma, params.gamma) for params in winding_states()]
    assert [hit for path in paths for hit in _reference_copies(path, states)] == []
