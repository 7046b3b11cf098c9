"""Exception types shared across the package.

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
