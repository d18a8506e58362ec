"""The package's public names: each module's ``__all__``, republished by the package,
and its version, stated once."""

import pickle
import warnings
from pathlib import Path

import pytest

import hvdcarb
from hvdcarb import arbitrage, dataio, errors, model, scheduler, wheeling

MODULES = (arbitrage, dataio, errors, model, scheduler, wheeling)

PUBLIC = [
    "AlignmentError", "BiasPolicy", "CapacityError", "CapacityProfile", "CaseStudyBundle",
    "ConfigConflictError", "Direction", "DuplicateRowError", "FlowDecision", "HOURS_PER_YEAR",
    "HvdcArbError", "Interconnector", "InvalidLossError", "Network", "ParseError",
    "PortfolioResult", "PriceSeries", "Region", "ResolutionError", "Schedule",
    "ValidationError", "WheelScenario", "WheelingChain", "WheelingResult", "evaluate_wheel",
    "extrapolate_annual", "flow_condition", "load_case_study", "load_network", "load_prices",
    "loss_from_length", "lp_oracle", "marginal_value", "optimal_flow", "pairwise_profit",
    "pairwise_profit_biased", "save_network", "save_prices", "schedule_link",
    "schedule_portfolio", "validate_network", "wheel_gates_123", "wheel_gates_321",
    "wheel_profit_123", "wheel_profit_321", "write_report",
]


def test_the_package_exports_the_46_names_each_once():
    assert sorted(hvdcarb.__all__) == PUBLIC
    assert len(set(hvdcarb.__all__)) == len(hvdcarb.__all__) == 46


def test_each_name_is_its_modules_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(hvdcarb, name) is getattr(module, name), (module.__name__, name)


def test_the_public_attributes_are_the_names_and_the_modules():
    public = {name for name in dir(hvdcarb) if not name.startswith("_")}
    # hvdcarb.cli is bound on the package once anything imports it
    modules = {module.__name__.removeprefix("hvdcarb.") for module in MODULES}
    assert public - {"cli"} == set(PUBLIC) | modules


def test_pyproject_takes_the_version_from_the_package():
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    try:
        from setuptools.config.pyprojecttoml import read_configuration
    except Exception as exc:  # absent, or too old for this interpreter
        pytest.skip(f"setuptools cannot read pyproject.toml here: {exc!r}")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # setuptools 65 calls this reader beta
        config = read_configuration(pyproject)
    assert config["project"]["version"] == hvdcarb.__version__


def test_every_error_survives_pickling():
    # an error raised in a worker process reaches its caller pickled
    with pytest.raises(errors.AlignmentError) as err:
        model._shared_horizon({"a": (1, 2), "b": (2, 3)})
    lazy = err.value  # its missing is built when first read
    made = [getattr(errors, name)("message") for name in errors.__all__] + [
        errors.ParseError("bad row", line=3),
        errors.DuplicateRowError("repeat", line=2),
        errors.AlignmentError("gap", {"a": (1,)}),
        lazy,
        errors.CapacityError("too much", "moyle"),
    ]
    for exc in made:
        copy = pickle.loads(pickle.dumps(exc))
        assert type(copy) is type(exc)
        assert str(copy) == str(exc)
        for attribute in ("line", "missing", "binding_link"):
            assert getattr(copy, attribute, None) == getattr(exc, attribute, None)
    assert lazy.missing == {"a": (3,), "b": (1,)}
