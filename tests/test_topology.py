import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from nhjc import (
    AntiWindingError,
    LevelIndex,
    ModelParams,
    NodeSet,
    OnBoundaryError,
    UndefinedTiltError,
    ValidationError,
    boundary,
    nodes,
    texture_closed_form,
    texture_coefficients,
    tilting_angle,
    winding_direction,
    winding_report,
)
from nhjc.topology import _AMPLITUDE_FLOOR, _END_SIGNS, PLANES, _alive, node_sum_windings, winding_grids
from conftest import make_reference
from reference_verify import node_sum


def test_end_sign_conventions(reference_params):
    # sgn<sigma_z>, sgn<sigma_y> -> 0 and sgn<sigma_x> -> -1 in both tails: at
    # the ends of the standard grid sigma_x is negative and the largest component
    assert _END_SIGNS == ((0, 0), (-1, -1))
    for n in (1, 3, 8, 50):
        tex = texture_closed_form(reference_params, LevelIndex(n, -1))
        for end in (0, -1):
            assert tex.sx[end] < 0
            assert abs(tex.sz[end]) < abs(tex.sx[end]) and abs(tex.sy[end]) < abs(tex.sx[end])


def test_hermitian_lowest_level_winds_counterclockwise():
    p = ModelParams(omega=0.9, Omega=1.0, g=0.04743)
    report = winding_report(p, LevelIndex(1, -1), ("zx",))["zx"]
    assert report["node_sum"] == report["integral"] == +1
    assert report["agreement"]


def test_vacuum_winding_is_degenerate_zero(reference_params):
    for plane, report in winding_report(reference_params, LevelIndex(0), PLANES).items():
        assert report == {"plane": plane, "degenerate": True, "node_sum": 0, "integral": 0,
                          "integral_residual": 0.0, "agreement": True}


def test_reference_state_magnitudes(reference_params):
    for report in winding_report(reference_params, LevelIndex(3, -1), PLANES).values():
        assert abs(report["node_sum"]) == 3
        assert report["agreement"]
        assert report["integral_residual"] < 0.1


def test_alive_mask_is_the_hypot_test_bit_for_bit():
    # the band where max(|x|, |y|) does not settle hypot > floor, its ends and
    # their neighbouring floats, underflowing squares, nan and inf
    floor = _AMPLITUDE_FLOOR
    special = np.array([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1e-300, 1.0, 1e300,
                        floor, floor / math.sqrt(2), 0.7 * floor, 0.75 * floor])
    band = floor * np.random.default_rng(3).uniform(0.69, 1.01, 600)
    values = np.concatenate((special, band))
    values = np.concatenate((values, -values, np.nextafter(values, np.inf), np.nextafter(values, 0.0)))
    x, y = np.meshgrid(values, values[::5])
    with np.errstate(over="ignore"):  # hypot of the largest floats
        expected = np.hypot(x, y) > floor
    assert np.array_equal(_alive(x, y), expected)


def test_node_sum_equals_integral_on_random_states(rng):
    from nhjc.verify import draw_sets

    for _ in range(12):
        params = draw_sets(rng, 1, n_max=6).point(0)
        for n in (1, 2, 4, 6):
            for eta in (-1, 1):
                level = LevelIndex(n, eta)
                for plane, report in winding_report(params, level, PLANES).items():
                    assert report["node_sum"] == report["integral"], (params, level, plane)
                    assert abs(report["node_sum"]) == n
                    assert report["integral_residual"] < 0.1


def test_both_sign_sum_forms_agree_despite_count_mismatch(reference_params):
    # M_x = 2n vs M_z = 2n-1, yet the two formulas give the same integer
    level = LevelIndex(4, -1)
    nz = nodes(reference_params, level, "z")
    nx = nodes(reference_params, level, "x")
    assert len(nx.positions) == len(nz.positions) + 1
    signed = node_sum_windings("zx", (nz.positions, nz.signs), (nx.positions, nx.signs))
    assert signed.tolist() == [node_sum(nz, nx)] and abs(signed[0]) == 4  # both raise if the forms disagree


def test_direction_law_matches_integral(rng):
    from nhjc.verify import draw_sets

    for _ in range(10):
        params = draw_sets(rng, 1, n_max=5).point(0)
        level = LevelIndex(5, -1)
        coeffs = texture_coefficients(params, level)
        reports = winding_report(params, level, PLANES)
        for plane, coeff in (("zx", coeffs.c_z), ("yx", coeffs.c_y)):
            assert winding_direction(coeffs, plane) == (1 if coeff > 0 else -1)
            assert reports[plane]["integral"] == -winding_direction(coeffs, plane) * 5


def test_direction_flips_across_the_three_special_points():
    # four representative states at n=4 bracketing the three boundaries
    points = [(0.01, 0.2), (0.03, 0.2), (0.06, 0.2), (0.06, 0.9)]
    signs = []
    for Gamma, gamma in points:
        coeffs = texture_coefficients(make_reference(Gamma=Gamma, gamma=gamma),
                                      LevelIndex(4, -1))
        signs.append((winding_direction(coeffs, "zx"), winding_direction(coeffs, "yx")))
    s_zx = [s[0] for s in signs]
    s_yx = [s[1] for s in signs]
    assert s_zx[0] != s_zx[1] and s_zx[1] != s_zx[2] and s_zx[2] == s_zx[3]
    assert s_yx[0] == s_yx[1] == s_yx[2] and s_yx[2] != s_yx[3]


def test_winding_loops_script_prints_the_flips_and_writes_the_loops(tmp_path):
    # the states bracket GR (1 -> 2), R (2 -> 3) and SI (3 -> 4) at n = 4
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, str(root / "scripts" / "winding_loops.py"), "--out-dir", str(tmp_path)],
                          env=dict(os.environ, PYTHONPATH=str(root / "src")), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert sorted(path.name for path in tmp_path.iterdir()) == [f"winding_loop_{i}.csv" for i in range(1, 5)]
    assert all(len(path.read_text().splitlines()) == 802 for path in tmp_path.iterdir())
    windings = [tuple(int(w) for w in re.findall(r"n_w\^(?:zx|yx) = ([+-]\d+)", line))
                for line in proc.stdout.splitlines()]
    assert len(windings) == 4 and all(abs(w) == 4 for pair in windings for w in pair)
    zx_flips, yx_flips = ([a[plane] != b[plane] for a, b in zip(windings, windings[1:])] for plane in (0, 1))
    assert zx_flips == [True, True, False] and yx_flips == [False, False, True]


@pytest.mark.parametrize("n", ["300", "0", "-1"])
def test_winding_loops_script_rejects_a_level_outside_the_domain(tmp_path, n):
    # these ended in a ValueError, a KeyError and a ValidationError traceback
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, str(root / "scripts" / "winding_loops.py"), "--out-dir", str(tmp_path),
                           "--n", n], env=dict(os.environ, PYTHONPATH=str(root / "src")),
                          capture_output=True, text=True)
    assert proc.returncode == 2 and proc.stdout == "" and "Traceback" not in proc.stderr
    assert [line for line in proc.stderr.splitlines() if "error:" in line] == [
        f"winding_loops.py: error: argument --n: must be in [1, 200], got {n}"]
    assert not any(tmp_path.iterdir())


def test_plane_coupling_sign(reference_params):
    coeffs = texture_coefficients(reference_params, LevelIndex(3, -1))
    product = winding_direction(coeffs, "zx") * winding_direction(coeffs, "yx")
    assert product == (1 if coeffs.c_z * coeffs.c_y > 0 else -1)


def test_direction_requires_nonzero_coefficient():
    point = boundary(make_reference(Gamma=0.0), "GR", 1, "Gamma")
    coeffs = texture_coefficients(make_reference(Gamma=point.value), LevelIndex(2, -1))
    if coeffs.c_z == 0.0:  # lands exactly on the boundary in floats
        with pytest.raises(OnBoundaryError):
            winding_direction(coeffs, "zx")
    else:
        assert abs(coeffs.c_z) < 1e-15


def test_anti_winding_detection():
    broken = NodeSet(component="z", positions=np.array([-1.0, 0.0, 1.0]),
                     signs=(1, 1, -1, 1))
    nx = NodeSet(component="x", positions=np.array([-1.5, -0.5, 0.5, 1.5]),
                 signs=(-1, 1, -1, 1, -1))
    with pytest.raises(AntiWindingError):
        node_sum_windings("zx", (broken.positions, broken.signs), (nx.positions, nx.signs))
    with pytest.raises(AntiWindingError):
        node_sum(broken, nx)


def test_tilting_angle_hermitian_is_zero(hermitian_params):
    for n in (1, 5, 20):
        tilt = tilting_angle(texture_coefficients(hermitian_params, LevelIndex(n, -1)))
        assert tilt.theta_t == 0.0
        assert tilt.ratio == 0.0


def test_tilting_angle_reference(reference_params):
    coeffs = texture_coefficients(reference_params, LevelIndex(3, -1))
    tilt = tilting_angle(coeffs)
    assert tilt.theta_t == pytest.approx(math.atan(coeffs.c_y / coeffs.c_z), abs=1e-15)
    assert -0.5 * math.pi <= tilt.theta_t <= 0.5 * math.pi
    assert math.tan(tilt.theta_t) * coeffs.c_z == pytest.approx(coeffs.c_y, abs=1e-12)


def test_tilting_angle_jumps_by_pi_at_gapped_reversal():
    point = boundary(make_reference(Gamma=0.0), "GR", 1, "Gamma")
    below = tilting_angle(texture_coefficients(
        make_reference(Gamma=point.value - 1e-6), LevelIndex(2, -1))).theta_t
    above = tilting_angle(texture_coefficients(
        make_reference(Gamma=point.value + 1e-6), LevelIndex(2, -1))).theta_t
    assert below == pytest.approx(-0.5 * math.pi, abs=1e-3)
    assert above == pytest.approx(+0.5 * math.pi, abs=1e-3)


def test_tilting_angle_vanishes_for_all_levels_at_super_invariant_point():
    base = make_reference(Gamma=0.05)
    point = boundary(base, "SI", 1, "gamma")
    at = base.with_value("gamma", point.value)
    for n in (1, 10, 100):
        tilt = tilting_angle(texture_coefficients(at, LevelIndex(n, -1)))
        assert abs(tilt.theta_t) < 1e-10


def test_tilting_angle_degenerate_cases():
    from nhjc.texture import TextureCoefficients

    on_axis = TextureCoefficients(c_z=0.0, c_y=-0.3, d_x=1.0)
    tilt = tilting_angle(on_axis)
    assert tilt.theta_t == -0.5 * math.pi and tilt.ratio == -math.inf
    with pytest.raises(UndefinedTiltError):
        tilting_angle(TextureCoefficients(c_z=0.0, c_y=0.0, d_x=1.0))


def test_integral_winding_reports_residual(reference_params):
    report = winding_report(reference_params, LevelIndex(2, -1), ("zx",))["zx"]
    assert report["integral_residual"] < 1e-10
    assert abs(report["integral"]) == 2


def test_winding_report_past_the_validity_domain_is_a_validation_error(reference_params):
    # it ended in a bare ValueError from hermite_roots
    with pytest.raises(ValidationError, match=r"^n must be in \[0, 200\], got 201$"):
        winding_report(reference_params, LevelIndex(201), ("zx",))


def test_winding_grids_are_sorted_rows_of_one_width_inside_the_domain():
    # nodes far past |x| = 40 keep their shells, clipped onto the domain edge
    n = 2
    x_nodes = np.array([[-1e159, -5e-160, 5e-160, 1e159], [-27.6, -0.1, 0.1, 27.6]])
    grids = winding_grids(n, x_nodes)
    assert grids.shape == (2, 801 + 2 * 23 * (4 * n - 1))
    assert np.all(np.diff(grids, axis=-1) >= 0) and np.all(np.abs(grids) <= 40.0)
    assert np.count_nonzero(grids[0] == 40.0) == np.count_nonzero(grids[0] == -40.0) == 2 * 23
    assert np.min(np.abs(grids[1] - 27.6)) < 1e-11  # the innermost shell of the outer node
