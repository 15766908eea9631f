"""Ratio summaries: order independence and the NaN rule."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from ustatkit.reporting import ratio_summary

_RATIOS = st.lists(
    st.one_of(st.just(0.0), st.just(math.inf),
              st.floats(min_value=1e-6, max_value=1e6)),
    min_size=0, max_size=12,
)


def test_nan_first_or_later_fails_alike():
    for ratios in ([math.nan, 1.0, 2.0], [1.0, math.nan, 2.0], [1.0, 2.0, math.nan]):
        assert all(math.isnan(v) for v in ratio_summary(ratios))


@settings(max_examples=200, deadline=None)
@given(_RATIOS, st.integers(min_value=1, max_value=3), st.randoms())
def test_any_nan_ratio_makes_every_order_nan(ratios, nans, rnd):
    rows = ratios + [math.nan] * nans
    for _ in range(4):
        rnd.shuffle(rows)
        assert all(math.isnan(v) for v in ratio_summary(rows))


@settings(max_examples=200, deadline=None)
@given(_RATIOS, st.randoms())
def test_summary_does_not_depend_on_row_order(ratios, rnd):
    want = ratio_summary(ratios)
    rows = list(ratios)
    rnd.shuffle(rows)
    got = ratio_summary(rows)
    # inf / inf stability is NaN on its own; compare NaN-aware
    assert all(a == b or (math.isnan(a) and math.isnan(b)) for a, b in zip(got, want))
