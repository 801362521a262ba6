"""Build the 40-digit reference table that the `tables` workload checks.

For D = 3 the kernel coefficients of |sin gamma| are

    k_n = -(4n + 1)/2 * int_{-1}^{1} sqrt(1 - t^2) P_2n(t) dt,

and with the power form of the Legendre polynomial and the moments
int sqrt(1 - t^2) t^(2j) dt = pi (2j)! / (4^j j! 2 (j + 1)!) every k_n is
pi times a rational number, summed here in exact integer arithmetic.  The
critical values are lambda_n = N(3, 2n) / k_n = (4n + 1) / k_n.  Neither
step shares code or method with the package (which uses Gauss-Jacobi
quadrature and recurrences); mpmath supplies pi and the 40-digit rounding.
A plain mpmath quadrature cross-checks the first coefficients.

Run from the repository root:  python3 perfbench/make_reference.py
"""

import json
import sys
from fractions import Fraction
from math import comb, factorial
from pathlib import Path

import mpmath

DIGITS = 40
N_COEFFS = 200
N_CRITICAL = 64
OUT = Path(__file__).resolve().parent / "reference" / "tables_d3.json"


def k_over_pi(n: int) -> Fraction:
    """k_n / pi for D = 3, exactly."""
    m = 2 * n
    total = Fraction(0)
    for k in range(n + 1):
        j = n - k
        coeff = Fraction((-1) ** k * comb(m, k) * comb(2 * m - 2 * k, m),
                         2 ** m)
        moment = Fraction(factorial(2 * j),
                          4 ** j * factorial(j) * 2 * factorial(j + 1))
        total += coeff * moment
    return -Fraction(4 * n + 1, 2) * total


def main() -> int:
    mpmath.mp.dps = DIGITS + 10
    k = {n: k_over_pi(n) * mpmath.pi for n in range(1, N_COEFFS + 1)}
    for n in range(1, 6):
        quad = -mpmath.mpf(4 * n + 1) / 2 * mpmath.quad(
            lambda t: mpmath.sqrt(1 - t * t) * mpmath.legendre(2 * n, t),
            [-1, 0, 1])
        if abs(quad - k[n]) > mpmath.mpf(10) ** (-DIGITS) * abs(k[n]):
            sys.stderr.write(f"quadrature disagrees at n={n}\n")
            return 1
    table = {
        "dim": 3,
        "digits": DIGITS,
        "k": {str(n): mpmath.nstr(v, DIGITS) for n, v in k.items()},
        "lambda": {str(n): mpmath.nstr((4 * n + 1) / k[n], DIGITS)
                   for n in range(1, N_CRITICAL + 1)},
    }
    OUT.write_text(json.dumps(table, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
