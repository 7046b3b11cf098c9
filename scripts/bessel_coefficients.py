"""Regenerate the J0/J1 coefficient literals of ``biphoton.analytic``.

    PYTHONPATH=src python scripts/bessel_coefficients.py

Needs mpmath, which the package never imports, and runs offline in under a
minute. ``analytic.j0``/``j1`` split the axis at |x| = 8:

* |x| <= 8: J0(x) = 1 + s g0(u) and J1(x) = x g1(u), with
  s = 2 x^2/8^2 = x^2/32 and u = s - 1 in [-1, 1];
* |x| > 8: J_n(x) = sqrt(2/(pi x)) (P_n cos chi - (8/x) Q_n sin chi), with
  chi = x - (2n + 1) pi/4 and P_n, Q_n polynomials in v = 2 (8/x)^2 - 1,
  which runs over (-1, 1] as x runs from infinity down to 8.

Each of the six polynomials comes from ``mpmath.chebyfit`` on [-1, 1] and is
printed as a tuple, highest degree first, ready to paste into analytic.py.
The script then evaluates ``analytic.j0``/``j1`` in float64 with the new
literals and prints their largest absolute error against mpmath.
"""
import mpmath as mp
import numpy as np

from biphoton import analytic

mp.mp.dps = 40
X0 = analytic._X0
NEAR_TERMS = 18
FAR_TERMS = 12


def _x_near(u):
    return X0 * mp.sqrt((u + 1) / 2)


def g0(u):
    """(J0(x) - 1) / s, whose limit at x = 0 is -X0^2/8."""
    s = u + 1
    return -mp.mpf(X0) ** 2 / 8 if s == 0 else (mp.besselj(0, _x_near(u)) - 1) / s


def g1(u):
    """J1(x) / x, whose limit at x = 0 is 1/2."""
    x = _x_near(u)
    return mp.mpf(1) / 2 if x == 0 else mp.besselj(1, x) / x


def _far(n, part):
    """P_n(v) (part 0) or Q_n(v) (part 1) from mpmath's J_n and Y_n."""
    def fn(v):
        if v == -1:            # x = infinity: P = 1, Q (8/x) ~ (4n^2 - 1)/(8x)
            return mp.mpf(1) if part == 0 else mp.mpf(4 * n * n - 1) / (8 * X0)
        x = X0 / mp.sqrt((v + 1) / 2)
        chi = x - (2 * n + 1) * mp.pi / 4
        jn, yn = mp.besselj(n, x), mp.bessely(n, x)
        scale = mp.sqrt(mp.pi * x / 2)
        if part == 0:
            return scale * (jn * mp.cos(chi) + yn * mp.sin(chi))
        return scale * (yn * mp.cos(chi) - jn * mp.sin(chi)) * x / X0
    return fn


FITS = {
    "_J0_NEAR": (g0, NEAR_TERMS),
    "_J1_NEAR": (g1, NEAR_TERMS),
    "_P0": (_far(0, 0), FAR_TERMS),
    "_Q0": (_far(0, 1), FAR_TERMS),
    "_P1": (_far(1, 0), FAR_TERMS),
    "_Q1": (_far(1, 1), FAR_TERMS),
}


def _literal(name, coeffs):
    rows = [", ".join(repr(c) for c in coeffs[i:i + 3]) for i in range(0, len(coeffs), 3)]
    return f"{name} = (\n    " + ",\n    ".join(rows) + ")"


def max_error(xs):
    """Largest |j0 - J0| and |j1 - J1| of analytic's float64 code on ``xs``."""
    ref0 = np.array([float(mp.besselj(0, mp.mpf(x))) for x in xs])
    ref1 = np.array([float(mp.besselj(1, mp.mpf(x))) for x in xs])
    return (float(np.max(np.abs(analytic.j0(xs) - ref0))),
            float(np.max(np.abs(analytic.j1(xs) - ref1))))


def main():
    for name, (fn, terms) in FITS.items():
        coeffs, err = mp.chebyfit(fn, [-1, 1], terms, error=True)
        coeffs = tuple(float(c) for c in coeffs)
        setattr(analytic, name, coeffs)
        print(_literal(name, coeffs))
        print(f"# fit error {mp.nstr(err, 3)}")
    near = np.linspace(0, X0, 4001)
    far = np.geomspace(X0, 1e4, 4001)[1:]
    for label, xs in ((f"|x| <= {X0:g}", near), (f"{X0:g} < |x| <= 1e4", far)):
        e0, e1 = max_error(xs)
        print(f"# max |error| on {label}: J0 {e0:.3g}, J1 {e1:.3g}")


if __name__ == "__main__":
    main()
