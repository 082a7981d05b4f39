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

ratio_roots(n, c) solves phi_n/phi_{n-1} = c (Golub & Welsch, "Calculation
of Gauss Quadrature Rules", Math. Comp. 23, 1969, extended from roots to level
sets). The recurrence x phi_k = sqrt((k+1)/2) phi_{k+1} + sqrt(k/2) phi_{k-1},
closed by phi_n = c phi_{n-1}, makes the n solutions the eigenvalues of the
Hermite Jacobi matrix (off-diagonal sqrt(k/2), k = 1..n-1) with its last
diagonal entry set to c sqrt(n/2). Two Newton steps on the ratio recurrence
polish them; the ratio stays finite where phi underflows.

hermite_roots(n) is the c = 0 case, symmetrized and memoized.
"""

from __future__ import annotations

import math

import numpy as np

from .params import N_MAX

__all__ = ["phi", "phi_pair", "phi_ratio", "ratio_roots", "hermite_roots", "domain_cutoff"]

_PI_QUARTER = math.pi ** -0.25

# floats in one stack of Jacobi matrices handed to eigvalsh (16 MB)
_STACK_FLOATS = 2 ** 21


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


def ratio_roots(n: int, c) -> np.ndarray:
    """The n solutions of phi_n(x)/phi_{n-1}(x) = c, increasing (n >= 1).

    c may be an array; the result then has shape c.shape + (n,), the sets
    found by stacked eigvalsh calls and polished by one Newton pass.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    ca = np.asarray(c, dtype=float)
    flat_c = ca.ravel()
    # one n x n matrix per level set, in stacks of at most about 16 MB
    per_stack = max(1, _STACK_FLOATS // (n * n))
    stacks = [np.linalg.eigvalsh(_jacobi(n, flat_c[i:i + per_stack]))
              for i in range(0, flat_c.size, per_stack)]
    x = np.concatenate(stacks or [np.empty((0, n))]).reshape(ca.shape + (n,))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(2):
            r, dr = math.sqrt(2.0) * x, math.sqrt(2.0)  # phi_1/phi_0 and its x-derivative
            for k in range(1, n):
                a, q = math.sqrt(2.0 / (k + 1)), math.sqrt(k / (k + 1)) / r
                r, dr = a * x - q, a + q * dr / r
            step = (r - ca[..., None]) / dr
            np.subtract(x, step, out=x, where=np.isfinite(step))
    return x


def _jacobi(n: int, c: np.ndarray) -> np.ndarray:
    """The Hermite Jacobi matrix of order n with its last diagonal entry set
    to c sqrt(n/2), one per element of the 1-D array c."""
    jacobi = np.zeros((len(c), n, n))
    flat = jacobi.reshape(len(c), n * n)  # a view: diagonals are strided slices
    flat[:, 1::n + 1] = flat[:, n::n + 1] = np.sqrt(np.arange(1, n) / 2.0)
    flat[:, -1] = c * math.sqrt(n / 2.0)
    return jacobi


_roots_cache: dict[int, np.ndarray] = {}


def hermite_roots(n: int) -> np.ndarray:
    """All n roots of H_n, strictly increasing, symmetric about 0.

    Valid for 1 <= n <= N_MAX; absolute accuracy ~1e-13. The returned array is
    read-only and cached.
    """
    if not 1 <= n <= N_MAX:
        raise ValueError(f"n must be in [1, {N_MAX}], got {n}")
    if (cached := _roots_cache.get(n)) is not None:
        return cached
    roots = ratio_roots(n, 0.0)
    roots = 0.5 * (roots - roots[::-1])  # exact symmetrization, middle root 0.0
    roots.setflags(write=False)
    return _roots_cache.setdefault(n, roots)
