"""Reference computations made apart from nhjc, and the output checks built on them.

Nothing here imports nhjc. Every quantity is rebuilt from the model's
definition (README): the excitation-n block of

    H = w~ a+a + (W~/2) sx + g~ (s- a+ + s+ a),   w~ = omega - i kappa,
    W~ = Omega - i gamma,   g~ = g - i Gamma

in the basis {|n-1, up_x>, |n, down_x>} is the 2x2 matrix

    [[(n-1) w~ + W~/2,  sqrt(n) g~    ],
     [sqrt(n) g~,       n w~ - W~/2   ]],

diagonalised here with numpy.linalg.eig. The eta = -1 state is the eigenvalue
with the lower real part. With the eigenvector scaled so that c_down =
sqrt(n) g~ (the package's documented normalisation), the texture amplitudes
follow from the sigma_z / sigma_y expectation of the two-component state:
Cz = 2 Re(conj(c_up) c_down)/sqrt(n) and Cy = -2 Im(conj(c_up) c_down)/sqrt(n).
The R/GR/SI points are the closed forms of the paper, written out again.

Each check returns a ``Check`` (name, passed, detail); none of them compares
against a stored copy of earlier output.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

# eig of a well-conditioned 2x2 block is good to a few ulp of its largest
# entry; 1e-12 relative leaves three orders of magnitude of headroom
ENERGY_RTOL = 1e-12
# rows closer than this (relative) to a sign change are not sign-checked
SIGN_RTOL = 1e-9


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    detail: str


def base_params(data: dict) -> dict:
    """The six model reals of a parameter object (g_rel in units of sqrt(omega Omega)/2)."""
    out = {k: float(data.get(k, 0.0)) for k in ("omega", "Omega", "kappa", "gamma", "Gamma")}
    out["g"] = (float(data["g"]) if "g" in data
                else float(data["g_rel"]) * math.sqrt(out["omega"] * out["Omega"]) / 2.0)
    return out


def read_table(path) -> tuple[list[str], np.ndarray]:
    """A numeric CSV as (header, 2D float array); 'nan' cells parse as nan."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], np.array([[float(v) for v in r] for r in rows[1:]], dtype=float).reshape(len(rows) - 1, -1)


def _blocks(p: dict, n: int) -> np.ndarray:
    """Stack of 2x2 block matrices, one per row of the broadcast parameters."""
    w = np.asarray(p["omega"]) - 1j * np.asarray(p["kappa"])
    W = np.asarray(p["Omega"]) - 1j * np.asarray(p["gamma"])
    gt = np.asarray(p["g"]) - 1j * np.asarray(p["Gamma"])
    w, W, gt = np.broadcast_arrays(w, W, gt)
    m = np.empty(w.shape + (2, 2), dtype=complex)
    m[..., 0, 0] = (n - 1) * w + 0.5 * W
    m[..., 0, 1] = m[..., 1, 0] = math.sqrt(n) * gt
    m[..., 1, 1] = n * w - 0.5 * W
    return m


def eig_block(p: dict, n: int):
    """Eigenvalues sorted by real part (eta = -1 first) and, for n >= 1, the
    eta = -1 coefficients (c_up, c_down) with c_down = sqrt(n) g~."""
    if n == 0:
        e0 = -0.5 * (np.asarray(p["Omega"]) - 1j * np.asarray(p["gamma"]))
        return e0[..., None], None
    m = _blocks(p, n)
    vals, vecs = np.linalg.eig(m)
    order = np.argsort(vals.real, axis=-1)
    vals = np.take_along_axis(vals, order, axis=-1)
    low = np.take_along_axis(vecs, order[..., None, :], axis=-1)[..., :, 0]
    c_down = math.sqrt(n) * (np.asarray(p["g"]) - 1j * np.asarray(p["Gamma"]))
    c_up = low[..., 0] / low[..., 1] * c_down
    return vals, (c_up, c_down)


def eigvec_condition(p: dict, n: int, vals: np.ndarray) -> np.ndarray:
    """||M|| / |E+ - E-| for the eigenvalues `vals` of block n: how much eig's
    eigenvector error exceeds its ulp level. Near an R line the two
    eigenvalues approach and the eigenvector loses digits in proportion."""
    split = np.abs(vals[..., 1] - vals[..., 0])
    return np.maximum(1.0, np.linalg.norm(_blocks(p, n), axis=(-2, -1)) / np.maximum(split, 1e-300))


def coefficients(c_up, c_down, n: int):
    """Oracle (Cz, Cy) and their natural scale 2|c_up||c_down|/sqrt(n)."""
    cross = np.conj(c_up) * c_down
    return (2.0 * cross.real / math.sqrt(n), -2.0 * cross.imag / math.sqrt(n),
            2.0 * np.abs(cross) / math.sqrt(n))


def gap_oracle(p: dict, n: int):
    """(Im E of eta=-1, deltaMinus, deltaPlus, energy scale) from eig of blocks n-1, n, n+1."""
    own, _ = eig_block(p, n)
    neighbours = np.concatenate([eig_block(p, n - 1)[0], eig_block(p, n + 1)[0]], axis=-1)
    delta_minus = np.abs(own[..., 1].real - own[..., 0].real)
    delta_plus = np.min(np.abs(own.real[..., :, None] - neighbours.real[..., None, :]), axis=(-2, -1))
    scale = np.maximum(1.0, np.max(np.abs(np.concatenate([own, neighbours], axis=-1)), axis=-1))
    return own[..., 0].imag, delta_minus, delta_plus, scale


def _worst(a, b, scale) -> float:
    d = np.abs(np.asarray(a) - np.asarray(b)) / scale
    return float(np.max(d)) if d.size else 0.0


def _sign_mismatches(value, oracle, scale) -> int:
    clear = np.abs(oracle) > SIGN_RTOL * scale
    return int(np.sum(clear & (np.sign(value) != np.sign(oracle))))


# -- analytic boundaries ---------------------------------------------------

def gamma_R(p: dict, n: int):
    """Reversal point in Gamma and whether A < 0 holds there."""
    d_Ww, d_kg = p["Omega"] - p["omega"], p["kappa"] - p["gamma"]
    g = np.asarray(p["g"], dtype=float)
    value = d_kg * d_Ww / (4.0 * n * g)
    A = n * (g * g - value * value) + 0.25 * d_Ww * d_Ww - 0.25 * d_kg * d_kg
    return value, A < 0.0


def gamma_GR(p: dict, n: int):
    """Gapped-reversal point in Gamma and whether level n keeps it (d_kg^2 > 4 n g^2)."""
    d_Ww, d_kg = p["Omega"] - p["omega"], p["kappa"] - p["gamma"]
    g = np.asarray(p["g"], dtype=float)
    return g * d_Ww / d_kg, d_kg * d_kg > 4.0 * n * g * g


def gamma_SI(p: dict):
    """Super-invariant point in the qubit rate gamma: kappa + Gamma d_Ww / g."""
    return p["kappa"] + p["Gamma"] * (p["Omega"] - p["omega"]) / p["g"]


# -- checks on sweep tables ------------------------------------------------

def _row_params(base: dict, header, table) -> dict:
    p = dict(base)
    for name in ("omega", "g", "kappa", "gamma", "Gamma"):
        if name in header:
            p[name] = table[:, header.index(name)]
    return p


def check_spectrum_columns(base, header, table) -> list[Check]:
    """imE/deltaMinus/deltaPlus against eig, thetaT = atan(CtY/CtZ), and the
    CtZ/CtY values and signs against the eigenvector oracle."""
    col = {name: table[:, i] for i, name in enumerate(header)}
    checks = []
    worst = {"imE": 0.0, "deltaMinus": 0.0, "deltaPlus": 0.0, "CtZ": 0.0, "CtY": 0.0}
    wrong_signs = {"CtZ": 0, "CtY": 0}
    worst_theta = 0.0
    regular = (col["exceptional"] == 0) & (col["degenerate"] == 0)
    for n in np.unique(col["n"]).astype(int):
        rows = regular & (col["n"] == n)
        p = _row_params(base, header, table[rows])
        im_e, d_minus, d_plus, scale = gap_oracle(p, n)
        # the two branches tie in real part only on an R line; a branch-sensitive
        # comparison is meaningful where eig separates them
        separated = d_minus > SIGN_RTOL * scale
        for name, ref, keep in (("imE", im_e, separated), ("deltaMinus", d_minus, True),
                                ("deltaPlus", d_plus, True)):
            if name in col:
                keep = np.broadcast_to(keep, ref.shape)
                worst[name] = max(worst[name], _worst(col[name][rows][keep], ref[keep], scale[keep]))
        vals, (c_up, c_down) = eig_block(p, n)
        cz, cy, cscale = coefficients(c_up, c_down, n)
        cscale = cscale * eigvec_condition(p, n, vals)
        for name, ref in (("CtZ", cz), ("CtY", cy)):
            if name in col:
                got = col[name][rows][separated]
                worst[name] = max(worst[name], _worst(got, ref[separated], cscale[separated]))
                wrong_signs[name] += _sign_mismatches(got, ref[separated], cscale[separated])
        if {"thetaT", "CtZ", "CtY"} <= set(col):
            tz, ty, th = col["CtZ"][rows], col["CtY"][rows], col["thetaT"][rows]
            with np.errstate(divide="ignore", invalid="ignore"):
                expect = np.where(tz == 0.0, np.copysign(0.5 * math.pi, ty), np.arctan(ty / tz))
            worst_theta = max(worst_theta, _worst(th, expect, 1.0))
    for name in ("imE", "deltaMinus", "deltaPlus"):
        if name in col:
            checks.append(Check(f"{name} vs eig", worst[name] <= ENERGY_RTOL,
                                f"worst relative difference {worst[name]:.1e} (<= {ENERGY_RTOL:g})"))
    for name in ("CtZ", "CtY"):
        if name in col:
            ok = worst[name] <= ENERGY_RTOL and wrong_signs[name] == 0
            checks.append(Check(f"{name} vs eigenvector", ok,
                                f"worst relative difference {worst[name]:.1e}, "
                                f"{wrong_signs[name]} sign mismatches"))
    if {"thetaT", "CtZ", "CtY"} <= set(col):
        checks.append(Check("thetaT = atan(CtY/CtZ)", worst_theta <= 1e-15,
                            f"worst difference {worst_theta:.1e}"))
    return checks


def check_winding_column(base, header, table) -> list[Check]:
    """|nWzx| = n off the boundaries, nan on them, and sign(nWzx) = -sign(Cz)."""
    col = {name: table[:, i] for i, name in enumerate(header)}
    w, on = col["nWzx"], col["on_boundary"] == 1
    regular = (col["exceptional"] == 0) & (col["degenerate"] == 0)
    magnitude_bad = int(np.sum(regular & ~on & (np.abs(w) != col["n"])))
    boundary_bad = int(np.sum(on & ~np.isnan(w)))
    sign_bad = unresolved = 0
    for n in np.unique(col["n"]).astype(int):
        rows = regular & ~on & (col["n"] == n)
        _, (c_up, c_down) = eig_block(_row_params(base, header, table[rows]), n)
        cz, _, scale = coefficients(c_up, c_down, n)
        unresolved += int(np.sum(np.abs(cz) <= SIGN_RTOL * scale))
        sign_bad += _sign_mismatches(-np.sign(w[rows]), cz, scale)
    return [
        Check("|nWzx| = n off the boundaries", magnitude_bad == 0 and boundary_bad == 0,
              f"{magnitude_bad} rows with |nWzx| != n, {boundary_bad} boundary rows not nan"),
        Check("sign(nWzx) = -sign(C) from eig", sign_bad == 0 and unresolved == 0,
              f"{sign_bad} sign mismatches, {unresolved} unflagged rows with Cz ~ 0"),
    ]


def check_flips_bracketed(base, header, table) -> Check:
    """Every sign flip of nWzx along Gamma (other axes fixed) lies in a cell
    that holds a valid analytic R or GR point of that level."""
    col = {name: table[:, i] for i, name in enumerate(header)}
    other = [c for c in ("g", "omega", "kappa", "gamma") if c in header]
    flips = unexplained = 0
    keys = np.stack([col[c] for c in other + ["n"]], axis=1)
    for key in np.unique(keys, axis=0):
        line = np.all(keys == key, axis=1) & ~np.isnan(col["nWzx"])
        if not line.any():
            continue
        order = np.argsort(col["Gamma"][line], kind="stable")
        gam, wv = col["Gamma"][line][order], col["nWzx"][line][order]
        p = _row_params(base, header, table[line][:1])
        p = {k: float(np.asarray(v).ravel()[0]) for k, v in p.items()}
        n = int(key[-1])
        points = []
        for value, valid in (gamma_R(p, n), gamma_GR(p, n)):
            if bool(valid):
                points.append(float(value))
        for i in np.flatnonzero(np.sign(wv[1:]) != np.sign(wv[:-1])):
            flips += 1
            lo, hi = gam[i], gam[i + 1]
            unexplained += not any(lo <= v <= hi for v in points)
    return Check("nWzx flips bracketed by R/GR", unexplained == 0 and flips > 0,
                 f"{flips} flips along Gamma, {unexplained} without an analytic R/GR point")


def check_si_crossings(base, header, table) -> Check:
    """On the tilt ladder CtY changes sign exactly once per level, in the cell
    that holds gamma_SI = kappa + Gamma d_Ww / g."""
    col = {name: table[:, i] for i, name in enumerate(header)}
    si = gamma_SI(base)
    bad = []
    levels = np.unique(col["n"]).astype(int)
    for n in levels:
        line = (col["n"] == n) & ~np.isnan(col["CtY"])
        order = np.argsort(col["gamma"][line], kind="stable")
        x, y = col["gamma"][line][order], col["CtY"][line][order]
        cells = np.flatnonzero(np.sign(y[1:]) != np.sign(y[:-1]))
        if len(cells) != 1 or not x[cells[0]] <= si <= x[cells[0] + 1]:
            bad.append(int(n))
    return Check("CtY crosses zero once, at gamma_SI", not bad,
                 f"{len(levels)} levels, gamma_SI = {si:.6f}, failing levels {bad}")


def check_overlays(base, path, families, axis, levels) -> list[Check]:
    """Overlay curves equal the closed forms (value and validity). `axis` is
    the solved-for parameter: Gamma on the (Gamma, g) plane, gamma on the
    one-axis tilt ladder."""
    checks = []
    for family in families:
        header, table = read_table(f"{path}.overlay.{family}.csv")
        col = {name: table[:, i] for i, name in enumerate(header)}
        p = _row_params(base, [h if h != axis else "" for h in header], table)
        if axis == "Gamma":
            n = col["n"] if family == "R" else min(levels)
            value, valid = (gamma_R(p, n) if family == "R" else gamma_GR(p, n))
        else:  # gamma solved for; the other parameters are fixed
            d_Ww, g, Gam = p["Omega"] - p["omega"], p["g"], p["Gamma"]
            if family == "SI":
                value, valid = np.full(len(table), gamma_SI(p)), np.ones(len(table), bool)
            elif family == "GR":
                value = np.full(len(table), p["kappa"] - g * d_Ww / Gam)
                valid = np.full(len(table), (p["kappa"] - value[0]) ** 2 > 4 * min(levels) * g * g)
            else:
                n = col["n"]
                value = p["kappa"] - 4.0 * n * g * Gam / d_Ww
                d_at = p["kappa"] - value
                valid = n * (g * g - Gam * Gam) + 0.25 * d_Ww * d_Ww - 0.25 * d_at * d_at < 0.0
        got = col[axis]
        worst = _worst(got, value, np.maximum(1.0, np.abs(value)))
        flag_bad = int(np.sum((col["valid"] == 1) != np.broadcast_to(valid, got.shape)))
        checks.append(Check(f"overlay {family} = closed form", worst <= 1e-13 and flag_bad == 0,
                            f"{len(table)} rows, worst difference {worst:.1e}, "
                            f"{flag_bad} validity flags differ"))
    return checks


# -- independent winding by phase unwrapping (seeded sample) -----------------

def hermite_functions(n: int, x: np.ndarray):
    """(phi_{n-1}, phi_n) from numpy's physicists' Hermite series."""
    from numpy.polynomial import hermite

    out = []
    for k in (n - 1, n):
        coef = np.zeros(k + 1)
        coef[k] = 1.0
        norm = 1.0 / math.sqrt(2.0 ** k * math.factorial(k) * math.sqrt(math.pi))
        out.append(norm * hermite.hermval(x, coef) * np.exp(-0.5 * x * x))
    return out


def unwrapped_winding(c_up: complex, c_down: complex, n: int, points: int = 40001):
    """Winding of (<sz>, <sx>) over x, angle measured from z toward x, from
    the two-component wave function sampled on a dense grid.

    Both tails tend to the direction (0, -1) (the phi_n^2 term of sx wins),
    so the walk is closed onto that limit at both ends. Returns the winding
    and the largest sampled angle step, which must stay below pi/2 for the
    unwrapping to be unambiguous."""
    half = math.sqrt(2 * n + 1) + 8.0
    x = np.linspace(-half, half, points)
    lo, hi = hermite_functions(n, x)
    up, down = c_up * lo, c_down * hi
    sz = 2.0 * (np.conj(up) * down).real
    sx = np.abs(up) ** 2 - np.abs(down) ** 2
    angle = np.arctan2(sx, sz)
    steps = np.angle(np.exp(1j * np.diff(np.concatenate(([-0.5 * math.pi], angle, [-0.5 * math.pi])))))
    return round(float(np.sum(steps)) / (2.0 * math.pi)), float(np.max(np.abs(steps[1:-1])))


def check_sampled_windings(base, header, table, seed: int, count: int = 24) -> Check:
    """Re-derive nWzx on `count` seeded rows by unwrapping the phase of the
    oracle texture. Rows are drawn from those whose coefficients keep the
    texture resolvable on a 40001-point grid: |C_up|/|C_down| in [0.3, 3]
    and |Cz| at least 5% of its scale."""
    col = {name: table[:, i] for i, name in enumerate(header)}
    candidates = []
    for n in np.unique(col["n"]).astype(int):
        rows = np.flatnonzero((col["n"] == n) & (col["on_boundary"] == 0) & (col["exceptional"] == 0)
                              & (col["degenerate"] == 0))
        _, (c_up, c_down) = eig_block(_row_params(base, header, table[rows]), n)
        cz, _, scale = coefficients(c_up, c_down, n)
        rho = np.abs(c_up) / np.abs(c_down)
        ok = (rho >= 0.3) & (rho <= 3.0) & (np.abs(cz) >= 0.05 * scale)
        candidates += [(int(r), n, complex(u), complex(d)) for r, u, d, k in zip(rows, c_up, c_down, ok) if k]
    if not candidates:
        return Check("sampled nWzx by phase unwrapping", False, "no resolvable rows")
    rng = np.random.default_rng(seed)
    picks = rng.choice(len(candidates), size=min(count, len(candidates)), replace=False)
    bad, worst = [], 0.0
    for i in sorted(picks):
        row, n, c_up, c_down = candidates[i]
        winding, step = unwrapped_winding(c_up, c_down, n)
        worst = max(worst, step)
        if winding != col["nWzx"][row]:
            bad.append(row)
    return Check("sampled nWzx by phase unwrapping", not bad and worst < 0.5 * math.pi,
                 f"{len(picks)} of {len(candidates)} rows (seed {seed}), mismatching rows {bad}, "
                 f"largest angle step {worst:.2f} rad (< pi/2)")


# -- checks on CLI output ----------------------------------------------------

def check_verify_text(text: str, checks: int = 9) -> Check:
    """`nhjc verify` ran all nine invariant checks and each printed PASS."""
    lines = text.splitlines()
    results = [line for line in lines if line.startswith(("[PASS] ", "[FAIL] "))]
    passed = sum(line.startswith("[PASS] ") for line in results)
    ok = len(results) == checks and passed == checks and lines[-1:] == [f"all {checks} invariant checks passed"]
    return Check(f"verify: {checks} invariant checks pass", ok, f"{passed} of {len(results)} checks passed")


def check_winding_json(text: str, n: int, p: dict) -> Check:
    """node_sum = integral = direction_rule with |value| = n, and the signs
    follow -sign(Cz) / -sign(Cy) from eig."""
    planes = json.loads(text)["planes"]
    _, (c_up, c_down) = eig_block(p, n)
    cz, cy, _ = coefficients(c_up, c_down, n)
    expect = {"zx": -int(np.sign(cz)) * n, "yx": -int(np.sign(cy)) * n}
    got = {k: (v["node_sum"], v["integral"], v["direction_rule"]) for k, v in planes.items()}
    ok = set(got) == {"zx", "yx"} and all(g == (expect[k],) * 3 for k, g in got.items())
    return Check(f"winding n={n}: node_sum = integral = direction_rule = +-n", ok,
                 f"got {got}, eig predicts {expect}")


def check_eigen_json(text: str, n: int, p: dict) -> Check:
    data = json.loads(text)
    vals, _ = eig_block(p, n)
    energy = complex(data["energy"]["re"], data["energy"]["im"])
    diff = abs(energy - complex(vals[0])) / max(1.0, abs(vals[0]))
    return Check(f"eigen n={n} energy vs eig", diff <= ENERGY_RTOL,
                 f"relative difference {diff:.1e} (<= {ENERGY_RTOL:g})")


def check_texture_csv(text: str, n: int, rows: int = 801) -> Check:
    """Finite texture on the default 801-point grid, with parity: sx even,
    sy and sz odd in x."""
    lines = text.splitlines()
    t = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    x, sx, sy, sz = t.T
    finite = bool(np.all(np.isfinite(t)))
    scale = max(float(np.max(np.abs(t[:, 1:]))), 1e-300)
    worst = max(float(np.max(np.abs(x + x[::-1]))) / max(1.0, float(np.max(np.abs(x)))),
                float(np.max(np.abs(sx - sx[::-1]))) / scale,
                float(np.max(np.abs(sy + sy[::-1]))) / scale,
                float(np.max(np.abs(sz + sz[::-1]))) / scale)
    ok = lines[0] == "x,sx,sy,sz" and len(t) == rows and finite and worst <= 1e-12
    return Check(f"texture n={n} finite with parity", ok,
                 f"{len(t)} rows, finite {finite}, worst parity residual {worst:.1e} (<= 1e-12)")
