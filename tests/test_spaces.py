"""Norm geometry descriptors and their admissible exponent ranges."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ustatkit.spaces import BanachSpaceDescriptor, real_line


def test_real_line_basics():
    sp = real_line()
    assert sp.dimension == 1
    assert sp.norm(3.5) == 3.5
    assert sp.norm(-2.0) == 2.0
    assert sp.zero() == 0.0


def test_scalar_norms_batch_shapes():
    sp = real_line()
    out = sp.norms(np.array([-1.0, 2.0, -3.0]))
    np.testing.assert_allclose(out, [1.0, 2.0, 3.0])
    # in dimension 1 every entry is a point, so a (B, 1) batch keeps its shape
    out2 = sp.norms(np.array([[-1.0], [2.0]]))
    assert out2.shape == (2, 1)


@settings(max_examples=200, deadline=None)
@given(st.data(), st.integers(1, 4), st.floats(1.1, 6.0))
def test_norms_keep_or_drop_the_coordinate_axis(data, dimension, s):
    space = BanachSpaceDescriptor(dimension, norm_exponent=s)
    lead = data.draw(hnp.array_shapes(min_dims=0 if dimension == 1 else 1, max_dims=3,
                                      min_side=1, max_side=4))
    shape = lead if dimension == 1 else lead[:-1] + (dimension,)
    batch = data.draw(hnp.arrays(np.float64, shape, elements=st.floats(-1e3, 1e3)))
    out = space.norms(batch)
    if dimension == 1:
        # every entry is a point, a trailing axis of length 1 included
        assert out.shape == batch.shape
        assert np.array_equal(out, np.abs(batch))
    else:
        assert out.shape == batch.shape[:-1]
        want = np.sum(np.abs(batch) ** s, axis=-1) ** (1.0 / s)
        assert np.array_equal(out, want)
        for row in np.ndindex(out.shape):
            assert out[row] == pytest.approx(space.norm(batch[row]), rel=1e-12)


def test_vector_norm_values():
    sp = BanachSpaceDescriptor(dimension=2, norm_exponent=2.0)
    assert sp.norm(np.array([3.0, 4.0])) == pytest.approx(5.0)
    sp3 = BanachSpaceDescriptor(dimension=3, norm_exponent=3.0)
    v = np.array([1.0, 1.0, 1.0])
    assert sp3.norm(v) == pytest.approx(3.0 ** (1.0 / 3.0))


def test_vector_norms_batch():
    sp = BanachSpaceDescriptor(dimension=2, norm_exponent=2.0)
    batch = np.array([[3.0, 4.0], [0.0, 1.0]])
    np.testing.assert_allclose(sp.norms(batch), [5.0, 1.0])
    with pytest.raises(ValueError):
        sp.norms(np.zeros((4, 3)))


def test_vector_norms_keep_the_leading_shape():
    sp = BanachSpaceDescriptor(dimension=3, norm_exponent=1.5)
    assert sp.norms(np.ones((4, 3))).shape == (4,)
    assert sp.norms(np.ones((2, 5, 3))).shape == (2, 5)
    assert real_line().norms(np.ones((2, 5))).shape == (2, 5)


def test_smoothness_capped_at_two():
    assert BanachSpaceDescriptor(2, norm_exponent=1.5).smoothness == 1.5
    assert BanachSpaceDescriptor(2, norm_exponent=2.0).smoothness == 2.0
    assert BanachSpaceDescriptor(2, norm_exponent=7.0).smoothness == 2.0


def test_admissible_p_range_and_contains():
    sp = BanachSpaceDescriptor(2, norm_exponent=1.5)
    lo, hi = sp.admissible_p_range()
    assert lo == 1.0 and hi == 1.5
    assert sp.contains_p(1.2)
    assert sp.contains_p(1.5)
    assert not sp.contains_p(1.0)
    assert not sp.contains_p(1.6)


def test_constructor_validation():
    with pytest.raises(ValueError):
        BanachSpaceDescriptor(0)
    with pytest.raises(ValueError):
        BanachSpaceDescriptor(2, norm_exponent=1.0)


def test_constructor_checks_types():
    for dimension in (2.5, True, "2"):
        with pytest.raises(ValueError, match="dimension"):
            BanachSpaceDescriptor(dimension)
    for exponent in ("2", 2j, None):
        with pytest.raises(ValueError, match="norm_exponent"):
            BanachSpaceDescriptor(2, norm_exponent=exponent)
    # numpy integers and floats are integers and reals
    assert BanachSpaceDescriptor(np.int64(2), np.float64(1.5)).dimension == 2


def test_round_trip_dict():
    sp = BanachSpaceDescriptor(3, norm_exponent=1.7)
    again = BanachSpaceDescriptor.from_dict(sp.to_dict())
    assert again == sp
