"""Exception types shared across the package, and the one guard two layers share.

The CLI maps these onto exit codes: configuration problems exit with 2,
numerical-guard trips (aliasing, disk transform bounds, overflow) with 3.
"""


class ConfigurationError(ValueError):
    """Invalid parameters, element ordering, weights, or config file."""


class DomainError(ValueError):
    """A requested coordinate lies outside the sampled grid."""


class GridMismatchError(ValueError):
    """Two fields or a field and a kernel live on incompatible grids."""


class UnsupportedElementError(TypeError):
    """An operation was asked for an element it cannot represent."""


class SamplingError(RuntimeError):
    """A grid is too coarse: chirp aliasing or unresolved fringes."""


class QuadratureError(RuntimeError):
    """A disk transform cannot meet its accuracy bound: the scalar oracle's
    panels ran out, or a table passes its series' order or phase cap."""


class ShapeError(ValueError):
    """A sampled curve does not have the shape an estimator requires."""


class NonFiniteError(ValueError):
    """A computed field or value overflowed the float range or became NaN."""


def chirp_scale(f: float, wl: float) -> float:
    """f**2 * wl, the scale of the focus chirp ``exp(-i pi z r^2/(f^2 wl))``.

    The closed form (``analytic.spot_offaxis_two_photon``) and the reversed
    train (``elements._axis_chirps``) both divide by it. Raises
    NonFiniteError where f**2 is beyond the float range.
    """
    try:
        return f ** 2 * wl
    except OverflowError:
        raise NonFiniteError(f"f**2 overflows the float range at f = {f!r} m") from None
