"""Fit the piecewise polynomials of ``mimocap.linalg`` for x e^x E_1(x) on [1, 64).

Each piece [2^i, 2^(i+1)], i = 0..5, is the degree-18 polynomial that
interpolates x e^x E_1(x) at the Chebyshev points of the piece, computed in
50-digit mpmath and written as monomial coefficients in s = x - 1.5 * 2^i.
Run ``python tools/fit_scaled_exp1.py`` to print the table and each piece's
largest relative error of e^x E_1(x) in double-precision Horner form.
"""

import mpmath
import numpy as np

mpmath.mp.dps = 50
DEGREE = 18


def piece(lo: int) -> list:
    mid, half = mpmath.mpf(3 * lo) / 2, mpmath.mpf(lo) / 2
    t = [mpmath.cos(mpmath.pi * (j + 0.5) / (DEGREE + 1)) for j in range(DEGREE + 1)]
    vals = [(mid + half * u) * mpmath.exp(mid + half * u) * mpmath.e1(mid + half * u) for u in t]
    coef = mpmath.lu_solve(mpmath.matrix([[u ** k for k in range(DEGREE + 1)] for u in t]),
                           mpmath.matrix(vals))
    return [float(coef[k] / half ** k) for k in range(DEGREE + 1)]


def worst_error(lo: int, coef: list) -> float:
    worst = 0.0
    for x in np.linspace(lo, 2 * lo, 1001):
        acc = 0.0
        for a in reversed(coef):
            acc = acc * (x - 1.5 * lo) + a
        ref = mpmath.exp(x) * mpmath.e1(x)
        worst = max(worst, float(abs(acc / x - ref) / ref))
    return worst


if __name__ == "__main__":
    for i in range(6):
        coef = piece(2 ** i)
        print(f"    # [{2 ** i}, {2 ** (i + 1)}]: max relative error {worst_error(2 ** i, coef):.1e}")
        print("    (" + ",\n     ".join(", ".join(repr(c) for c in coef[k:k + 4])
                                       for k in range(0, len(coef), 4)) + "),")
