"""Harmonic-oscillator eigenfunctions and Hermite-root machinery.

phi(n, x) is the orthonormal oscillator eigenfunction

    phi_n(x) = H_n(x) exp(-x^2/2) / sqrt(2^n n! sqrt(pi)),

evaluated through the normalized three-term recurrence

    phi_{k+1} = x sqrt(2/(k+1)) phi_k - sqrt(k/(k+1)) phi_{k-1},

seeded by phi_0 = pi^(-1/4) exp(-x^2/2). Raw Hermite polynomials overflow
near n ~ 150; the normalized recurrence keeps every intermediate O(1) and is
good to at least n = 200, |x| <= 40.

phi_ratio(n, x) = phi_n/phi_{n-1} uses a ratio recurrence that never touches
the Gaussian factor, so it stays meaningful arbitrarily far in the tail where
phi itself underflows to zero. Poles (roots of phi_{n-1}) propagate through
IEEE infinities and recover on the next step.

hermite_roots(n) finds all n roots by interlacing bisection: the roots of
H_k strictly separate those of H_{k+1}, so climbing from H_1 = 2x gives
guaranteed brackets at every level. Results are symmetrized and memoized.
"""

from __future__ import annotations

import math
import threading

import numpy as np

__all__ = ["phi", "phi_pair", "phi_ratio", "hermite_roots", "domain_cutoff", "ROOT_TOL", "N_MAX"]

_PI_QUARTER = math.pi ** -0.25

ROOT_TOL = 1e-12

# highest level of the validity domain (n <= 200, |x| <= 40)
N_MAX = 200


def domain_cutoff(n: int) -> float:
    """Half-width L(n) = sqrt(2n+1) + 8 beyond which |phi_n| < 1e-14."""
    return math.sqrt(2 * n + 1) + 8.0


def phi(n: int, x):
    """Orthonormal oscillator eigenfunction phi_n at x (scalar or ndarray)."""
    return phi_pair(n, x)[1]


def phi_pair(n: int, x):
    """Return (phi_{n-1}, phi_n) evaluated at x; phi_{-1} is 0 by convention."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    scalar = np.isscalar(x)
    xa = np.asarray(x, dtype=float)
    prev = np.zeros_like(xa)
    cur = _PI_QUARTER * np.exp(-0.5 * xa * xa)
    for k in range(n):
        prev, cur = cur, xa * math.sqrt(2.0 / (k + 1)) * cur - math.sqrt(k / (k + 1)) * prev
    if scalar:
        return float(prev), float(cur)
    return prev, cur


def phi_ratio(n: int, x):
    """Stable ratio phi_n(x)/phi_{n-1}(x) for n >= 1 (scalar or ndarray).

    Division by an exact zero yields +-inf (a pole of the ratio), which the
    next recurrence step maps back to a finite value.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    scalar = np.isscalar(x)
    xa = np.asarray(x, dtype=float)
    r = math.sqrt(2.0) * xa  # phi_1/phi_0
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(1, n):
            r = xa * math.sqrt(2.0 / (k + 1)) - math.sqrt(k / (k + 1)) / r
    if scalar:
        return float(r)
    return r


_roots_cache: dict[int, np.ndarray] = {1: np.array([0.0])}
_roots_lock = threading.Lock()


def _bisect_phi(n: int, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Vectorized bisection for roots of phi_n inside sign-changing brackets."""
    slo = np.sign(phi(n, lo))
    # enforce the sign-change precondition the interlacing theorem guarantees
    if np.any(slo == np.sign(phi(n, hi))):
        raise AssertionError(f"interlacing bracket lost for n={n}")
    while np.max(hi - lo) > ROOT_TOL:
        mid = 0.5 * (lo + hi)
        sm = np.sign(phi(n, mid))
        take_hi = slo != sm
        hi = np.where(take_hi, mid, hi)
        lo = np.where(take_hi, lo, mid)
    return 0.5 * (lo + hi)


def hermite_roots(n: int) -> np.ndarray:
    """All n roots of H_n, strictly increasing, symmetric about 0.

    Valid for 1 <= n <= N_MAX; absolute accuracy ~1e-12. The returned array is
    read-only and cached (population is idempotent, safe under concurrency).
    """
    if not 1 <= n <= N_MAX:
        raise ValueError(f"n must be in [1, {N_MAX}], got {n}")
    cached = _roots_cache.get(n)
    if cached is not None:
        return cached
    start = max(k for k in _roots_cache if k <= n)
    roots = _roots_cache[start]
    for k in range(start, n):
        m = k + 1
        outer = math.sqrt(2 * m + 1) + 1.0
        edges = np.concatenate(([-outer], roots, [outer]))
        # only resolve the positive half; mirror the rest
        half = m // 2
        lo = edges[-(half + 1):-1].copy()
        hi = edges[-half:].copy()
        pos = _bisect_phi(m, lo, hi) if half else np.empty(0)
        if m % 2:
            roots = np.concatenate((-pos[::-1], [0.0], pos))
        else:
            roots = np.concatenate((-pos[::-1], pos))
        roots = 0.5 * (roots - roots[::-1])  # exact symmetrization
        roots.setflags(write=False)
        with _roots_lock:
            _roots_cache.setdefault(m, roots)
        roots = _roots_cache[m]
    return _roots_cache[n]
