"""The one p95 helper equals ``np.quantile(..., 0.95)`` bit for bit.

Robust objectives (``reduce_statistic``), robustness profiles and the
runtime metrics all take their 95th percentile from
:func:`repro.obs.stats.p95`: two order statistics by ``np.partition``
and numpy's linear interpolation.  Values compare by their bytes, so a
sign of zero or a NaN payload that differs fails too.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.obs.stats import p95
from repro.robustness.evaluate import RobustnessProfile, reduce_statistic
from repro.runtime import metrics

#: Smooth values, ties and signed zeros (NaN and inf have their own test).
_values = st.one_of(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    st.sampled_from([0.0, -0.0, 1.0, 1.0, 2.5]),
)


def _same(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@settings(max_examples=300, deadline=None)
@given(values=st.lists(_values, min_size=1, max_size=300))
def test_flat_samples(values):
    _same(p95(values), np.quantile(values, 0.95))
    assert type(p95(values)) is type(np.quantile(values, 0.95))


@settings(max_examples=200, deadline=None)
@given(
    arr=hnp.arrays(
        np.float64,
        hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=40),
        elements=_values,
    ),
    axis=st.sampled_from([None, -1, 1, 0]),
)
def test_rows_and_flattened(arr, axis):
    _same(p95(arr, axis=axis), np.quantile(arr, 0.95, axis=axis))


def test_every_sample_size_up_to_200():
    """Every K, so each interpolation weight occurs: ``g == 0.5`` exactly
    (K = 11, 31, ...) takes numpy's second form."""
    rng = np.random.default_rng(95)
    for k in range(1, 201):
        values = rng.lognormal(0.0, 1.0, size=(3, k))
        _same(p95(values[0]), np.quantile(values[0], 0.95))
        _same(p95(values, axis=-1), np.quantile(values, 0.95, axis=-1))
    # At g == 0.5 the two forms round apart: 0.1 + 0.3 is 0.4, while
    # 0.7 - 0.3 is 0.39999999999999997.
    halfway = [0.0] * 9 + [0.1, 0.7]
    _same(p95(halfway), np.quantile(halfway, 0.95))
    assert p95(halfway) == 0.7 - (0.7 - 0.1) * 0.5


@pytest.mark.parametrize("value", [0.0, -0.0, 3.5, np.inf, -np.inf, np.nan])
def test_single_draw(value):
    _same(p95([value]), np.quantile([value], 0.95))
    _same(p95([[value], [1.0]], axis=-1),
          np.quantile([[value], [1.0]], 0.95, axis=-1))


@pytest.mark.parametrize("values", [
    [1.0, np.nan], [np.nan, 2.0, 3.0], [1.0, np.inf], [-np.inf, 1.0],
    [np.inf, np.inf], [2.0] * 21,
])
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nan_and_infinities(values):
    _same(p95(values), np.quantile(values, 0.95))


def test_empty_sample_raises():
    with pytest.raises(ValueError, match="empty"):
        p95([])
    with pytest.raises(ValueError, match="no samples"):
        metrics.p95([])


@settings(max_examples=50, deadline=None)
@given(values=st.lists(_values, min_size=1, max_size=64))
def test_every_surface_reads_the_helper(values):
    arr = np.asarray(values)
    want = np.quantile(arr, 0.95)
    _same(reduce_statistic(arr, "p95"), want)
    _same(reduce_statistic(arr[None, :], "p95", axis=1),
          np.quantile(arr[None, :], 0.95, axis=1))
    assert metrics.p95(values) == float(want)
    profile = RobustnessProfile(
        nominal_time=1.0, draw_times=arr, statistic="p95"
    )
    assert profile.p95 == float(want) == profile.value
