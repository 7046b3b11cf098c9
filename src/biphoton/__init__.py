"""Two-photon interference patterns and their classical time-reversed reconstruction.

Layers, roughly bottom to top:

- ``grid``: sampled fields and the unitary centered Fourier transform
- ``elements``: optical elements and pinhole-readout trains
- ``analytic``: closed-form fringes, focal spots, the disk transform
- ``forward``: two-photon amplitude evolution and the equivalence sweep
- ``modes``: the randomized audit of the discrete-mode detection probabilities
- ``config`` / ``cli``: JSON experiment configs and the ``biphoton`` command
- ``oracles``: slow or scalar references of the fast paths, for tests only;
  no run imports them

Every value class derives from ``_value.Value`` (frozen, no generated code).
"""
import types

from .analytic import (
    FocusParams,
    YoungParams,
    disk_transform_table,
    fwhm,
    sinc,
    somb,
    spot_axial,
    spot_lateral,
    spot_offaxis_two_photon,
    young_classical,
    young_two_photon,
)
from .config import (
    AuditSpec,
    ExperimentConfig,
    GridSpec,
    SweepSpec,
    load_config,
    validate,
)
from .elements import (
    SHG,
    CircularAperture,
    DoubleSlit,
    FourierLens,
    FreeSpaceFourier,
    OffsetChirp,
    OpticalTrain,
    PinholeSample,
    apply_element,
    reversed_focus_train,
    reversed_young_train,
    run_train,
    run_train_batch,
)
from .errors import (
    ConfigurationError,
    DomainError,
    GridMismatchError,
    NonFiniteError,
    QuadratureError,
    SamplingError,
    ShapeError,
    UnsupportedElementError,
)
from .forward import (
    EquivalenceReport,
    forward_vs_reversed_young,
    forward_young,
    young_coincidence_at,
)
from .grid import (
    Grid1D,
    Grid2D,
    SampledField,
    inner_product,
    point_source,
    power,
    unitary_fourier,
)
from .modes import AuditReport, time_reversal_audit

__version__ = "0.1.0"

# The public names are what the imports above bind.
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, types.ModuleType))
