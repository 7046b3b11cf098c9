"""Regenerate the J1 coefficient literals of ``biphoton.analytic``.

    PYTHONPATH=src python scripts/bessel_coefficients.py

Needs mpmath, which the package never imports, and runs offline in under a
minute. ``analytic.j1`` splits the axis at |x| = 8:

* |x| <= 8: J1(x) = x g(u), with u = 2 x^2/8^2 - 1 = x^2/32 - 1 in [-1, 1];
* |x| > 8: J1(x) = sqrt(2/(pi x)) (P cos chi - (8/x) Q sin chi), with
  chi = x - 3 pi/4 and P, Q polynomials in v = 2 (8/x)^2 - 1, which runs
  over (-1, 1] as x runs from infinity down to 8.

Each of the three polynomials comes from ``mpmath.chebyfit`` on [-1, 1] and
is printed as a tuple, highest degree first, ready to paste into
analytic.py. The script then evaluates ``analytic.j1`` in float64 with the
new literals and prints its largest absolute error against mpmath.
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


def g(u):
    """J1(x) / x, whose limit at x = 0 is 1/2."""
    x = _x_near(u)
    return mp.mpf(1) / 2 if x == 0 else mp.besselj(1, x) / x


def _far(part):
    """P(v) (part 0) or Q(v) (part 1) from mpmath's J1 and Y1."""
    def fn(v):
        if v == -1:            # x = infinity: P = 1, Q (8/x) ~ 3/(8x)
            return mp.mpf(1) if part == 0 else mp.mpf(3) / (8 * X0)
        x = X0 / mp.sqrt((v + 1) / 2)
        chi = x - 3 * mp.pi / 4
        j, y = mp.besselj(1, x), mp.bessely(1, x)
        scale = mp.sqrt(mp.pi * x / 2)
        if part == 0:
            return scale * (j * mp.cos(chi) + y * mp.sin(chi))
        return scale * (y * mp.cos(chi) - j * mp.sin(chi)) * x / X0
    return fn


FITS = {
    "_J1_NEAR": (g, NEAR_TERMS),
    "_P1": (_far(0), FAR_TERMS),
    "_Q1": (_far(1), FAR_TERMS),
}


def _literal(name, coeffs):
    rows = [", ".join(repr(c) for c in coeffs[i:i + 3]) for i in range(0, len(coeffs), 3)]
    return f"{name} = (\n    " + ",\n    ".join(rows) + ")"


def max_error(xs):
    """Largest |j1 - J1| of analytic's float64 code on ``xs``."""
    ref = np.array([float(mp.besselj(1, mp.mpf(x))) for x in xs])
    return float(np.max(np.abs(analytic.j1(xs) - ref)))


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
        print(f"# max |error| on {label}: {max_error(xs):.3g}")


if __name__ == "__main__":
    main()
