"""Fit the coefficient tables behind the encoder's GELU kernel.

The kernel (audiomlp.encoder) evaluates the complementary error function
as

    erfc(z) = t * exp(-z*z + P(2t - 1)),   t = 2 / (2 + z),   z >= 0,

the form of Numerical Recipes' erfccheb. As z runs over [0, inf), x = 2t - 1
runs over (-1, 1], and P(x) = log(erfc(z) / t) + z*z is smooth on the
closed interval, so a short Chebyshev series P(x) = sum_k c[k] T_k(x)
represents it.

This script interpolates P at Chebyshev nodes, with erfc from the
standard library's math.erfc, and truncates the series for each dtype to
the fewest terms whose truncation error in 2 * Phi(u) = 1 + erf(u / sqrt 2)
stays within that dtype's target. Each truncated series is printed in the
power basis, P(x) = sum_j a[j] x^j, because Horner's rule takes two array
passes per term where Clenshaw's recurrence takes three; the power-basis
coefficients are well conditioned (sum |a[j]| is about 1.46, against
max |P| of about 0.65). The output is the Python source committed in
encoder.py:

    python3 tools/fit_erfc.py

Only the standard library and numpy are used, so the tables can be
reproduced offline.
"""

from __future__ import annotations

import math

import numpy as np

NODES = 64  # interpolation nodes; the coefficients reach rounding level by k ~ 25
# Largest absolute error allowed in 2 * Phi(u): two float32 ulps at 2, and
# a float64 bound far inside the finite-difference checks' tolerance.
TARGETS = {"float32": 4.8e-7, "float64": 1e-14}


def _two_square(z: float) -> tuple[float, float]:
    """z*z as hi + lo exactly (Veltkamp split)."""
    hi = z * z
    c = 134217729.0 * z  # 2**27 + 1
    zh = c - (c - z)
    zl = z - zh
    return hi, ((zh * zh - hi) + 2.0 * zh * zl) + zl * zl


def _log_erfc_plus_square(z: float) -> float:
    """log(erfc(z)) + z*z to double precision, for any z >= 0."""
    if z > 25.0:
        # erfc(z) nears the bottom of the double range: use the asymptotic
        # series erfc(z) = exp(-z*z) / (z sqrt(pi)) * sum_k (-1)^k (2k-1)!! / (2z^2)^k
        total = term = 1.0
        k = 0
        while abs(term) > 1e-18:
            k += 1
            term *= -(2 * k - 1) / (2.0 * z * z)
            total += term
        return math.log(total / (z * math.sqrt(math.pi)))
    hi, lo = _two_square(z)
    return math.log(math.erfc(z) * math.exp(hi)) + lo


def chebyshev_coefficients() -> list[float]:
    """c[0..NODES-1] of P by interpolation at the NODES Chebyshev points."""
    values = []
    for j in range(NODES):
        x = math.cos(math.pi * (j + 0.5) / NODES)
        t = 0.5 * (1.0 + x)
        values.append(_log_erfc_plus_square((1.0 - x) / t) - math.log(t))
    # cos(pi * k * (2j + 1) / (2 NODES)) with the argument reduced exactly
    cosines = [math.cos(math.pi * m / (2 * NODES)) for m in range(4 * NODES)]
    coeffs = [
        2.0 / NODES * math.fsum(v * cosines[k * (2 * j + 1) % (4 * NODES)]
                                for j, v in enumerate(values))
        for k in range(NODES)
    ]
    coeffs[0] *= 0.5
    return coeffs


def truncation_error(coeffs: list[float]) -> float:
    """Largest |error| in 2 * Phi(u), |u| <= 12, from using only these terms."""
    z = np.linspace(0.0, 12.0 / math.sqrt(2.0), 4001)
    t = 2.0 / (2.0 + z)
    approx = t * np.exp(np.polynomial.chebyshev.chebval(2.0 * t - 1.0, coeffs) - z * z)
    exact = np.array([math.erfc(v) for v in z])
    return float(np.max(np.abs(approx - exact)))


def fit() -> dict[str, list[float]]:
    """Per dtype, the power-basis coefficients a[0..n-1] of its truncated series."""
    coeffs = chebyshev_coefficients()
    tables = {}
    for name, target in TARGETS.items():
        n = next(n for n in range(1, NODES + 1) if truncation_error(coeffs[:n]) <= target)
        tables[name] = [float(a) for a in np.polynomial.chebyshev.cheb2poly(coeffs[:n])]
    return tables


def main() -> None:
    tables = fit()
    print("# Printed by tools/fit_erfc.py: P(x) = sum_j a[j] x^j, the Chebyshev fit")
    print("# truncated for each dtype and written in the power basis.")
    for name, table in tables.items():
        print(f"_ERFC_POLY_{name.upper()} = (")
        for a in table:
            print(f"    {a!r},")
        print(")")


if __name__ == "__main__":
    main()
