"""The frozen value classes, and the test oracles' names in their old modules."""
import json

import numpy as np
import pytest

import biphoton
import biphoton.analytic as analytic
import biphoton.forward as forward
import biphoton.modes as modes
import biphoton.oracles as oracles
from biphoton._value import fields
from biphoton.analytic import FocusParams, YoungParams
from biphoton.cli import run
from biphoton.config import AuditSpec, ExperimentConfig, GridSpec, SweepSpec, load_config
from biphoton.elements import (
    SHG,
    CircularAperture,
    DoubleSlit,
    FourierLens,
    FreeSpaceFourier,
    Magnifier,
    OpticalTrain,
    OffsetChirp,
    PinholeSample,
    _Element,
    reversed_focus_train,
)
from biphoton.errors import ConfigurationError
from biphoton.forward import EquivalenceReport
from biphoton.grid import Grid1D, Grid2D, SampledField
from biphoton.modes import AuditReport
from biphoton.oracles import (
    DeltaComb,
    FinalMode,
    SingleParticleKernel,
    TwoPhotonAmplitude,
    TwoPhotonCoeff,
)

G4 = Grid1D(4, 1e-6)
F2 = np.eye(2) / 2          # 2 sum |f|^2 = 1
MODE = np.array([0.6, 0.8])

# Every value class: its required fields with a value each, its fields with
# defaults and their default, both in declared order, and whether == compares
# fields (False: identity, for the array-holding classes).
VALUES = [
    (Grid1D, {"n": 8, "dx": 1e-6}, {}, True),
    (Grid2D, {"nx": 8, "ny": 4, "dx": 1e-6, "dy": 2e-6}, {}, True),
    (SampledField, {"grid": G4, "wavelength": 8e-7, "amp": np.ones(4)}, {}, False),
    (_Element, {}, {}, True),
    (FourierLens, {"f": 0.05}, {}, True),
    (FreeSpaceFourier, {"L": 0.25}, {}, True),
    (OffsetChirp, {"f": 0.05, "z": 1e-5}, {}, True),
    (DoubleSlit, {"x1": 5e-4}, {"slit_width": None}, True),
    (CircularAperture, {"D": 0.0127}, {}, True),
    (Magnifier, {"M": -0.2}, {}, True),
    (SHG, {}, {}, True),
    (PinholeSample, {}, {"radius": 0.0}, True),
    (OpticalTrain, {"elements": (FourierLens(0.05), SHG())}, {}, True),
    (YoungParams, {"x1": 5e-4, "f": 0.05, "wavelength": 7.8e-7}, {}, True),
    (FocusParams, {"D": 0.0127, "f": 0.05, "wavelength": 7.8e-7}, {}, True),
    (DeltaComb, {"locations": (1e-6,), "weights": (1 + 0j,)}, {}, True),
    (SweepSpec, {"axis": "x0", "start": -1e-5, "stop": 1e-5, "count": 3},
     {"second": None}, True),
    (GridSpec, {"n": 64, "dx": 1e-6}, {}, True),
    (AuditSpec, {"n_modes": 4, "trials": 10}, {}, True),
    (ExperimentConfig, {"experiment": "young", "mode": "analytic"},
     {"wavelength": None, "f": None, "D": None, "x1": None, "slit_width": None,
      "L1": None, "L2": None, "z0": 0.0, "sweep": None, "grid": None, "audit": None,
      "seed": 0, "output": None}, True),
    (TwoPhotonAmplitude, {"grid": G4, "psi": np.eye(4)}, {}, False),
    (SingleParticleKernel, {"grid_in": G4, "grid_out": G4, "K": np.eye(4)}, {}, False),
    (EquivalenceReport, {"max_rel_err": 1e-15, "n_points": 9}, {}, True),
    (TwoPhotonCoeff, {"f": F2}, {}, False),
    (FinalMode, {"psi": MODE}, {}, False),
    (AuditReport, {"n_modes": 4, "trials": 10, "seed": 0, "max_ratio_dev": 0.0,
                   "tolerance": 1e-9}, {}, True),
]


def same(a, b):
    return np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b


@pytest.mark.parametrize("cls,required,defaults,by_fields", VALUES,
                         ids=[v[0].__name__ for v in VALUES])
def test_value_class_contract(cls, required, defaults, by_fields):
    assert [f.name for f in fields(cls)] == list(required) + list(defaults)
    by_position = cls(*required.values())
    by_keyword = cls(**required)
    for value in (by_position, by_keyword):
        for name, given in required.items():
            assert same(getattr(value, name), given)
        for name, default in defaults.items():
            assert getattr(value, name) == default
            assert type(getattr(value, name)) is type(default)
    every = {**required, **defaults}
    for value in (cls(*every.values()), cls(**every)):
        assert all(same(getattr(value, name), given) for name, given in every.items())
    for name in every:
        with pytest.raises(AttributeError):
            setattr(by_position, name, None)
        with pytest.raises(AttributeError):
            delattr(by_position, name)
    with pytest.raises(TypeError):
        cls(*every.values(), None)             # one positional argument too many
    with pytest.raises(TypeError):
        cls(**required, unknown=None)
    if required:
        with pytest.raises(TypeError):
            cls(*list(required.values())[:-1])  # a required field missing
        first = next(iter(required.items()))
        with pytest.raises(TypeError):
            cls(*required.values(), **dict([first]))  # given twice
    if by_fields:
        assert by_position == by_keyword and not by_position != by_keyword
        assert hash(by_position) == hash(by_keyword)
    else:
        assert by_position != by_keyword and by_position == by_position
        assert hash(by_position) == object.__hash__(by_position)
    assert repr(by_position).startswith(f"{cls.__name__}(")


def test_value_equality_is_the_dataclass_rule():
    # same class and equal fields; one field each does not make two classes equal
    assert FourierLens(0.05) != FreeSpaceFourier(0.05)
    assert FourierLens(0.05) == FourierLens(0.05)
    a = reversed_focus_train(0.05, 0.0127, 2e-5, 0.25, 0.5)
    b = reversed_focus_train(0.05, 0.0127, 2e-5, 0.25, 0.5)
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != reversed_focus_train(0.05, 0.0127, 2e-5, 0.25, 0.5, second_harmonic=False)
    assert {Grid1D(8, 1e-6): 1}[Grid1D(8, 1e-6)] == 1


@pytest.mark.parametrize("make", [
    lambda: SampledField(G4, 8e-7, np.ones(4)),
    lambda: TwoPhotonAmplitude(G4, np.eye(4)),
    lambda: SingleParticleKernel(G4, G4, np.eye(4)),
    lambda: TwoPhotonCoeff(F2),
    lambda: FinalMode(MODE),
])
def test_array_holders_compare_by_identity(make):
    a, b = make(), make()
    assert a == a and a != b and hash(a) != hash(b)


def test_value_repr_and_normalized_fields():
    assert repr(FourierLens(0.05)) == "FourierLens(f=0.05)"
    assert repr(DoubleSlit(5e-4)) == "DoubleSlit(x1=0.0005, slit_width=None)"
    assert repr(SHG()) == "SHG()"
    # __post_init__ may still normalize a field of a frozen value
    train = OpticalTrain([FourierLens(0.05)])
    assert train.elements == (FourierLens(0.05),)
    field = SampledField(G4, 8e-7, [1, 2, 3, 4])
    assert field.amp.dtype == np.complex128 and not field.amp.flags.writeable


def test_element_rules_still_name_a_mistyped_field():
    with pytest.raises(ConfigurationError, match=r"DoubleSlit\.slit_width must be a finite"):
        DoubleSlit(5e-4, "1e-5")


def test_summary_config_block_is_unchanged(tmp_path, capsys):
    summary = run(load_config("configs/young_compare.json"), out=str(tmp_path / "y.csv"))
    capsys.readouterr()
    with open(tmp_path / "y.summary.json", encoding="utf-8") as fh:
        written = json.load(fh)["config"]
    expected = {
        "experiment": "young", "mode": "compare", "wavelength": 7.8e-07, "f": 0.05,
        "D": None, "x1": 0.0005, "slit_width": None, "L1": 0.25, "L2": 0.5, "z0": 0.0,
        "sweep": {"axis": "x0", "start": -4e-05, "stop": 4e-05, "count": 81,
                  "second": None},
        "grid": {"n": 1024, "dx": 2e-05}, "audit": None, "seed": 0,
        "output": "young_compare.csv",
    }
    for block in (summary["config"], written):
        assert list(block.items()) == list(expected.items())
        assert list(block["sweep"]) == list(expected["sweep"])


# ---------------------------------------------------------------- old names


def test_every_public_name_resolves():
    for name in biphoton.__all__:
        assert getattr(biphoton, name) is not None, name
    # the test oracles are not public names of the package
    defined = {name for name, value in vars(oracles).items()
               if getattr(value, "__module__", None) == oracles.__name__}
    assert "kernel_of" in defined and "TwoPhotonCoeff" in defined
    assert not defined & set(biphoton.__all__)


# the names perfbench reaches in their old modules
@pytest.mark.parametrize("module,names", [
    (forward, ("TwoPhotonAmplitude", "spdc_initial", "kernel_of", "evolve",
               "coincidence_diagonal")),
    (analytic, ("uniform_disk_transform", "j0")),
    (modes, ("_coeff_from_rng", "_mode_from_rng", "forward_prob_general", "norm_factor",
             "reversed_intensity_conditional")),
])
def test_oracle_names_resolve_in_their_old_modules(module, names):
    for name in names:
        assert getattr(module, name) is getattr(oracles, name), name
    namespace = {}
    exec(f"from {module.__name__} import {', '.join(names)}", namespace)
    assert all(namespace[name] is getattr(oracles, name) for name in names)


@pytest.mark.parametrize("module,name", [
    (biphoton, "kernel_of"), (biphoton, "TwoPhotonCoeff"),
    (forward, "SingleParticleKernel"), (analytic, "young_stage_field"),
    (analytic, "_GL_NODES"), (modes, "random_coeff"), (modes, "FinalMode"),
])
def test_oracles_perfbench_does_not_reach_have_no_alias(module, name):
    assert hasattr(oracles, name)
    with pytest.raises(AttributeError, match=name):
        getattr(module, name)


@pytest.mark.parametrize("module", [biphoton, forward, analytic, modes])
def test_unknown_names_still_raise_attribute_error(module):
    with pytest.raises(AttributeError, match="no_such_name"):
        module.no_such_name
    assert not hasattr(module, "young_params")
