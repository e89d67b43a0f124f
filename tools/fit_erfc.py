"""Fit the coefficient table behind the encoder's float32 GELU kernel.

The kernel (audiomlp.encoder) evaluates the Gaussian CDF Phi in float32 as

    Phi(u) = 1/2 + 1/2 * tanh(u * Q(min(u*u, 36))),

because numpy's float32 tanh is a SIMD loop and the form needs no abs,
divide, exp or sign step. Q(s) = sum_j b[j] s^j approximates
atanh(erf(u / sqrt 2)) / u with s = u*u. Its error moves 2 * Phi by
u * sech(u Q)^2 times the error in Q, so Q is fitted with that weight,
minimax by Lawson's iteratively reweighted least squares on Chebyshev
points in s. Past |u| = 6 the clamp holds Q at Q(36), where u * Q is
above 10, and tanh rounds to exactly +-1 in float32. The fewest terms
whose error in 2 * Phi, the clamp included, stays within 1.2e-7 (half a
float32 ulp at 2, leaving room for rounding) are printed with that error.
Other dtypes need no table: the kernel takes their Phi from math.erfc.

The output is the Python source committed in encoder.py:

    python3 tools/fit_erfc.py

Only the standard library and numpy's elementwise arithmetic are used
(the linear solves are done here in Python, not by LAPACK), so the table
can be reproduced offline.
"""

from __future__ import annotations

import math

import numpy as np

# Largest absolute error allowed in 2 * Phi(u): half a float32 ulp at 2.
TANH_TARGET = 1.2e-7
TANH_CLAMP = 36.0  # u*u is clamped here, at |u| = 6
TANH_POINTS = 2000  # fitting points in s
LAWSON_STEPS = 30  # reweightings; the error settles within 20
CHECK_U = np.linspace(0.0, 12.0, 12001)  # where the errors are measured


def _atanh_erf_over_u(s: float) -> float:
    """atanh(erf(u / sqrt 2)) / u at u = sqrt(s) > 0, to double precision."""
    u = math.sqrt(s)
    z = u / math.sqrt(2.0)
    if u < 0.5:
        return math.atanh(math.erf(z)) / u
    # atanh(1 - e) = log((2 - e) / e) / 2 keeps the digits erf(z) rounds away
    e = math.erfc(z)
    return 0.5 * math.log((2.0 - e) / e) / u


def _solve(a: list[list[float]], b: list[float]) -> list[float]:
    """a x = b by Gaussian elimination with partial pivoting."""
    n = len(b)
    m = [row[:] + [rhs] for row, rhs in zip(a, b)]
    for k in range(n):
        p = max(range(k, n), key=lambda i: abs(m[i][k]))
        m[k], m[p] = m[p], m[k]
        for i in range(k + 1, n):
            f = m[i][k] / m[k][k]
            for j in range(k, n + 1):
                m[i][j] -= f * m[k][j]
    x = [0.0] * n
    for k in reversed(range(n)):
        x[k] = (m[k][n] - math.fsum(m[k][j] * x[j] for j in range(k + 1, n))) / m[k][k]
    return x


def _tanh_form_error(power: list[float]) -> float:
    """Largest |error| in 2 * Phi(u), |u| <= 12, of the clamped tanh form."""
    s = np.minimum(CHECK_U * CHECK_U, TANH_CLAMP)
    y = CHECK_U * np.polynomial.polynomial.polyval(s, power)
    approx = np.array([1.0 + math.tanh(v) for v in y.tolist()])
    exact = np.array([1.0 + math.erf(v / math.sqrt(2.0)) for v in CHECK_U.tolist()])
    return float(np.max(np.abs(approx - exact)))


def _lawson_fit(terms: int) -> list[float]:
    """Power-basis b[0..terms-1] of Q, weighted minimax on s in [0, 36]."""
    half = 0.5 * TANH_CLAMP
    s = [half * (1.0 - math.cos(math.pi * (j + 0.5) / TANH_POINTS)) for j in range(TANH_POINTS)]
    target = np.array([_atanh_erf_over_u(v) for v in s])
    weight = np.array([math.sqrt(v) / math.cosh(math.sqrt(v) * q) ** 2 for v, q in zip(s, target)])
    # Chebyshev basis in x = s / 18 - 1: well conditioned for the solve
    basis = np.polynomial.chebyshev.chebvander(np.array(s) / half - 1.0, terms - 1).T
    lawson = np.full(TANH_POINTS, 1.0 / TANH_POINTS)
    for _ in range(LAWSON_STEPS):
        w2 = weight * weight * lawson
        gram = [[math.fsum((w2 * bi * bj).tolist()) for bj in basis] for bi in basis]
        rhs = [math.fsum((w2 * bi * target).tolist()) for bi in basis]
        coeffs = _solve(gram, rhs)
        approx = sum(c * b for c, b in zip(coeffs, basis))
        lawson = lawson * np.abs(weight * (approx - target))
        lawson /= math.fsum(lawson.tolist())
    cheb = np.polynomial.chebyshev.cheb2poly(coeffs)
    # substitute x = s / 18 - 1 into the power series in x
    shifted = np.polynomial.Polynomial(cheb)(np.polynomial.Polynomial([-1.0, 1.0 / half]))
    return [float(b) for b in shifted.coef]


def fit_tanh_form() -> tuple[list[float], float]:
    """The fewest-term Q within TANH_TARGET, with its error in 2 * Phi."""
    for terms in range(2, 16):
        power = _lawson_fit(terms)
        error = _tanh_form_error(power)
        if error <= TANH_TARGET:
            return power, error
    raise RuntimeError("no tanh-form fit reached the float32 target")


def _print_table(name: str, table: list[float]) -> None:
    print(f"{name} = (")
    for a in table:
        print(f"    {a!r},")
    print(")")


def main() -> None:
    power, error = fit_tanh_form()
    print("# Printed by tools/fit_erfc.py: Q(s) = sum_j b[j] s^j of the float32 tanh")
    print("# form of Phi, s = min(u*u, 36).")
    print(f"# Largest error in 2 * Phi of the tanh form, |u| <= 12: {error:.2g}")
    _print_table("_TANH_POLY_FLOAT32", power)


if __name__ == "__main__":
    main()
