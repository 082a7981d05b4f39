"""Reference root and node solvers, kept apart from the library's Jacobi
eigenvalue route: the Hermite roots by interlacing bisection and the sigma_x
nodes by scalar bisection inside brackets set by the poles and the roots.
Slow, but they share nothing with nhjc.oscillator.ratio_roots."""

import math

import numpy as np

from nhjc import phi, phi_ratio

_TOL = 1e-12
_ROOTS = {1: np.array([0.0])}


def interlacing_roots(n):
    """Roots of H_n climbed from H_1 = 2x: the roots of H_k strictly separate
    those of H_{k+1}, so every level has guaranteed sign-changing brackets."""
    start = max(k for k in _ROOTS if k <= n)
    roots = _ROOTS[start]
    for m in range(start + 1, n + 1):
        outer = math.sqrt(2 * m + 1) + 1.0
        edges = np.concatenate(([-outer], roots, [outer]))
        lo, hi = edges[:-1], edges[1:]
        slo = np.sign(phi(m, lo))
        assert not np.any(slo == np.sign(phi(m, hi))), f"interlacing bracket lost for n={m}"
        while np.max(hi - lo) > _TOL:
            mid = 0.5 * (lo + hi)
            take_hi = slo != np.sign(phi(m, mid))
            hi = np.where(take_hi, mid, hi)
            lo = np.where(take_hi, lo, mid)
        roots = _ROOTS[m] = 0.5 * (lo + hi)
    return _ROOTS[n]


def _refine(n, target, lo, hi):
    """Bisect phi_n/phi_{n-1} - target inside a sign-changing bracket, down to
    1e-12 or to adjacent floats, whichever comes first."""
    flo = phi_ratio(n, lo) - target
    fhi = phi_ratio(n, hi) - target
    assert flo < 0.0 < fhi or fhi < 0.0 < flo, f"lost bracket ({lo}, {hi}) for n={n}"
    neg_left = flo < 0.0
    while hi - lo > _TOL:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if (phi_ratio(n, mid) - target < 0.0) == neg_left:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _from_pole(n, pole, toward, target):
    """Endpoint between pole and toward past the target: the ratio falls to
    -inf just right of a pole and rises to +inf just left of it."""
    delta = 0.5 * (toward - pole)
    from_right = delta > 0.0
    for _ in range(120):
        r = phi_ratio(n, pole + delta)
        if (r < target) if from_right else (r > target):
            return pole + delta
        delta *= 0.25
    raise AssertionError(f"no bracket near pole {pole} for n={n}")


def _outward(n, start, step, target):
    """Endpoint beyond the outermost root, doubling the step until the ratio
    (which tends to +-inf in the tails) passes the target."""
    x = start + step
    while (phi_ratio(n, x) > target) if step < 0.0 else (phi_ratio(n, x) < target):
        step *= 2.0
        x += step
    return x


def bisect_x_nodes(n, rho):
    """The 2n solutions of phi_n/phi_{n-1} = -rho and = +rho, increasing:
    between consecutive poles (roots of H_{n-1}) the ratio rises from -inf
    through -rho, the root of H_n and +rho to +inf."""
    poles = interlacing_roots(n - 1) if n > 1 else np.empty(0)
    zeros = interlacing_roots(n)
    reach = 1.0 + rho * math.sqrt(0.5 * n)
    found = []
    for i, z in enumerate(zeros):
        a = _outward(n, z, -reach, -rho) if i == 0 else _from_pole(n, poles[i - 1], z, -rho)
        found.append(_refine(n, -rho, a, z))
        b = _outward(n, z, reach, rho) if i == n - 1 else _from_pole(n, poles[i], z, rho)
        found.append(_refine(n, rho, z, b))
    return np.array(found)
