"""The value and result records: read-only, equal by value, and named in repr."""

import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest

import ustatkit
from ustatkit import (
    BanachSpaceDescriptor,
    Distribution,
    ExperimentConfig,
    HolderParams,
    SamplingDesign,
    builtin_kernel,
)
from ustatkit.hoeffding import check_degeneracy, project_component, reconstruct_identity_check
from ustatkit.holder import dyadic_increment_exceedance
from ustatkit.incomplete import WeightSet, bernoulli_sum_moment_check, draw_design
from ustatkit.reporting import ratio_report
from ustatkit.tails import EmpiricalTail
from ustatkit.ustat import complete_ustat, decomposition_identity_check, partial_sum_path

_H = builtin_kernel("product", 2)
_LAW = Distribution.rademacher()
_SAMPLE = np.array([1.0, -1.0, 1.0, 1.0, -1.0, -1.0])
_PATHS = [np.arange(9, dtype=np.float64)] * 2

# one instance per record, built on demand
RECORDS = {
    "BanachSpaceDescriptor": lambda: BanachSpaceDescriptor(2, 1.5),
    "Distribution": lambda: Distribution.uniform(0.0, 1.0),
    "HoeffdingComponent": lambda: project_component(_H, (0,), _LAW),
    "DegeneracyEntry": lambda: check_degeneracy(_H, _LAW).coordinate_entries[0],
    "DegeneracyReport": lambda: check_degeneracy(_H, _LAW),
    "ReconstructionCheck": lambda: reconstruct_identity_check(_H, _LAW, samples=4),
    "EmpiricalTail": lambda: EmpiricalTail.from_samples([2.0, 1.0]),
    "HolderParams": lambda: HolderParams(0.25),
    "DyadicExceedanceTable": lambda: dyadic_increment_exceedance(_PATHS, 0.3, 1.0, 1, 2),
    "UStatResult": lambda: complete_ustat(_H, _SAMPLE),
    "DecompositionCheck": lambda: decomposition_identity_check(_H, _LAW, _SAMPLE),
    "PartialSumPath": lambda: partial_sum_path(_H, _SAMPLE),
    "SamplingDesign": lambda: SamplingDesign.bernoulli(0.5),
    "WeightSet": lambda: draw_design(SamplingDesign.without_replacement(3), 6, 2, seed=0),
    "BernoulliMomentCheck": lambda: bernoulli_sum_moment_check(2, 2, 0.5, 1.5, 2.0, 100),
    "InequalityReport": lambda: ratio_report("demo", [{"ratio": 1.0}], {"a": 1}, 2.0),
    "Kernel": lambda: _H,
    "ExperimentConfig": lambda: ExperimentConfig(_H, _LAW, experiment="deviation"),
}


@pytest.mark.parametrize("name", RECORDS)
def test_record_is_a_read_only_named_tuple(name):
    record = RECORDS[name]()
    assert type(record).__name__ == name
    assert isinstance(record, tuple) and record._fields
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)
    with pytest.raises(AttributeError):
        record.not_a_field = None
    assert repr(record).startswith(f"{name}({record._fields[0]}=")


@pytest.mark.parametrize("name", [
    "BanachSpaceDescriptor", "Distribution", "SamplingDesign", "HolderParams"])
def test_equal_values_compare_and_hash_equal(name):
    a, b = RECORDS[name](), RECORDS[name]()
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1


def test_replace_validates_like_the_constructor():
    with pytest.raises(ValueError, match="dimension"):
        BanachSpaceDescriptor(2)._replace(dimension=0)
    with pytest.raises(ValueError, match="family"):
        Distribution.rademacher()._replace(family="cauchy")
    with pytest.raises(ValueError, match="rate"):
        SamplingDesign.bernoulli(0.5)._replace(rate=2.0)
    with pytest.raises(ValueError, match="alpha"):
        HolderParams(0.25)._replace(alpha=0.5)
    ws = RECORDS["WeightSet"]()
    assert ws._replace(ranks=[0, 1, 2]).ranks.dtype == np.int64
    with pytest.raises(ValueError, match="increasing"):
        ws._replace(ranks=[2, 1, 0])
    with pytest.raises(ValueError, match="arity"):
        _H._replace(arity=0)
    with pytest.raises(ValueError, match="scalar kernel"):
        _H._replace(weighted=True)
    config = RECORDS["ExperimentConfig"]()
    assert config._replace(seed=3).seed == 3
    with pytest.raises(ValueError, match="replications"):
        config._replace(replications=0)


def test_to_dict_keys():
    report = RECORDS["InequalityReport"]()
    assert report.to_dict() == {
        "kind": "demo", "rows": [{"ratio": 1.0}], "fitted_constant": 1.0,
        "stability": 1.0, "passed": True, "details": {"a": 1, "ratio_spread": 1.0}}
    d = RECORDS["DegeneracyReport"]().to_dict()
    assert set(d) == {"arity", "exact", "scale", "degenerate", "order",
                      "coordinate_entries", "level_entries"}
    for entry in d["coordinate_entries"] + d["level_entries"]:
        assert type(entry) is dict
        assert set(entry) == {"label", "norm_estimate", "squared_statistic",
                              "squared_se", "verdict"}


def test_no_exported_type_is_a_dataclass():
    # a dataclass costs about a millisecond of import time to build, and
    # the dataclasses module another one or two to import
    exported = [getattr(ustatkit, name) for name in ustatkit.__all__]
    assert [obj.__name__ for obj in exported
            if isinstance(obj, type) and dataclasses.is_dataclass(obj)] == []


def test_importing_the_cli_does_not_load_dataclasses():
    src = os.path.dirname(os.path.dirname(ustatkit.__file__))
    code = "import sys, ustatkit.cli; print('dataclasses' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True)
    assert out.stdout == "False\n"


# The constructor runs the checks the classmethods run: a record that
# builds is one that samples and draws.


def test_distribution_refuses_a_missing_parameter_at_construction():
    with pytest.raises(ValueError, match=r"uniform law takes parameters \(a, b\), got 0"):
        Distribution("uniform")


def test_distribution_refuses_a_nonpositive_sd_at_construction():
    with pytest.raises(ValueError, match="sd must be positive"):
        Distribution("gaussian", (0.0, -1.0))
    with pytest.raises(ValueError, match="finite number"):
        Distribution("gaussian", (0.0, float("nan")))


def test_sampling_design_refuses_fractional_draws():
    with pytest.raises(ValueError, match="draws must be an integer, got 2.5"):
        SamplingDesign("without_replacement", draws=2.5)


def test_sampling_design_classmethod_refuses_fractional_draws():
    # the classmethod used to truncate 2.7 to 2 draws
    with pytest.raises(ValueError, match="draws must be an integer, got 2.7"):
        SamplingDesign.without_replacement(2.7)
    assert SamplingDesign.with_replacement(np.int64(3)).draws == 3


def test_sampling_design_refuses_a_bool_rate():
    with pytest.raises(ValueError, match="rate must be a number, got True"):
        SamplingDesign("bernoulli", rate=True)
