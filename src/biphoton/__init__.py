"""Two-photon interference patterns and their classical time-reversed reconstruction.

Layers, roughly bottom to top:

- ``grid``: sampled fields and the unitary centered Fourier transform
- ``elements``: optical elements and pinhole-readout trains
- ``analytic``: closed-form fringes, focal spots, disk quadrature, stage fields
- ``forward``: two-photon amplitude evolution and the equivalence sweep
- ``modes``: discrete-mode detection probabilities and the randomized audit
- ``config`` / ``cli``: JSON experiment configs and the ``biphoton`` command
"""
import types

from .analytic import (
    DeltaComb,
    FocusParams,
    YoungParams,
    disk_transform_table,
    focus_stage_field,
    fwhm,
    sinc,
    somb,
    spot_axial,
    spot_lateral,
    spot_offaxis_two_photon,
    uniform_disk_transform,
    young_classical,
    young_stage_field,
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
    Magnifier,
    OpticalTrain,
    PinholeSample,
    TwoFWithOffset,
    apply_circular_aperture,
    apply_double_slit,
    apply_element,
    apply_fourier_lens,
    free_space_fourier,
    magnify,
    pinhole_intensity,
    reversed_focus_train,
    reversed_young_train,
    run_train,
    run_train_batch,
    shg,
    two_f_with_offset,
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
    SingleParticleKernel,
    TwoPhotonAmplitude,
    coincidence_diagonal,
    evolve,
    forward_vs_reversed_young,
    forward_young,
    kernel_of,
    spdc_initial,
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
from .modes import (
    AuditReport,
    FinalMode,
    MixtureWeights,
    TwoPhotonCoeff,
    forward_prob_general,
    forward_prob_single,
    mixed_reconstruction,
    norm_factor,
    pair_overlap,
    random_coeff,
    random_mode,
    reversed_intensity_conditional,
    reversed_intensity_single,
    time_reversal_audit,
)

__version__ = "0.1.0"

# The public names are exactly what the imports above bind.
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, types.ModuleType))
