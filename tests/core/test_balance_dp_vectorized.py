"""Property suite: vectorized Algorithm-1 tables == the scalar loop.

The contract is *bit*-identity, not approximate equality: ``time`` tables
must match byte-for-byte (``tobytes``) and ``choice`` tables exactly, so
the vectorized fill can silently replace the scalar one everywhere the
planner, autotuner and repair fallback reconstruct partitions.  Weights
draw heavily from a tiny value set to saturate ties and exercise the
first-occurrence argmin tie-break.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.balance_dp import (
    BalanceTable,
    _scalar_tables,
    balanced_partition,
    min_max_partition,
)


def _scalar_sizes(weights, p):
    """Min-max sizes reconstructed from the scalar reference tables."""
    n = len(weights)
    prefix = np.concatenate(([0.0], np.cumsum(np.asarray(weights, float))))
    _, choice = _scalar_tables(prefix, n, p)
    out, i = [], n
    for j in range(p, 0, -1):
        k = int(choice[i][j])
        out.append(i - k)
        i = k
    return out[::-1]

# Mix smooth floats with a tiny tie-prone alphabet (zeros included).
weights_st = st.lists(
    st.one_of(
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        st.sampled_from([0.0, 1.0, 1.0, 2.5]),
    ),
    min_size=1,
    max_size=40,
)


class TestBitIdentity:
    @given(weights=weights_st, data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_tables_bitwise_equal(self, weights, data):
        p = data.draw(st.integers(1, len(weights)))
        vec = BalanceTable(weights, p)
        prefix = np.concatenate(([0.0], np.cumsum(np.asarray(weights, float))))
        time, choice = _scalar_tables(prefix, len(weights), p)
        assert vec.time.tobytes() == time.tobytes()
        assert np.array_equal(vec.choice, choice)

    @given(weights=weights_st, data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_sizes_match_scalar_over_all_queries(self, weights, data):
        p = data.draw(st.integers(1, len(weights)))
        table = BalanceTable(weights, p)
        nb = data.draw(st.integers(1, len(weights)))
        s = data.draw(st.integers(1, min(p, nb)))
        assert table.sizes(s, nb) == _scalar_sizes(weights[:nb], s)
        assert min_max_partition(weights[:nb], s) == table.sizes(s, nb)

    def test_impl_keyword_removed(self):
        for build in (BalanceTable, min_max_partition, balanced_partition):
            with pytest.raises(TypeError, match="impl"):
                build([1.0, 2.0], 2, impl="scalar")


class TestPrefixProperty:
    @given(weights=weights_st, data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_sub_query_equals_fresh_table(self, weights, data):
        """One table answers every (num_blocks, stages) sub-query exactly
        as a table built on just that prefix would."""
        p = data.draw(st.integers(1, len(weights)))
        table = BalanceTable(weights, p)
        nb = data.draw(st.integers(1, len(weights)))
        s = data.draw(st.integers(1, min(p, nb)))
        fresh = BalanceTable(weights[:nb], s)
        assert table.sizes(s, nb) == fresh.sizes(s)
        assert table.bottleneck_value(s, nb) == fresh.bottleneck_value(s)


class TestSignedZeros:
    """The ``k >= i`` mask and the one-pass weight check keep the tables
    bitwise the scalar loop's when weights are zero or ``-0.0``."""

    @given(
        weights=st.lists(
            st.sampled_from([0.0, -0.0, 1.0, 2.5]), min_size=1, max_size=30
        ),
        data=st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_tables_bitwise_equal_with_signed_zero_weights(self, weights, data):
        p = data.draw(st.integers(1, len(weights)))
        vec = BalanceTable(weights, p)
        prefix = np.concatenate(([0.0], np.cumsum(np.asarray(weights, float))))
        time, choice = _scalar_tables(prefix, len(weights), p)
        assert vec.time.tobytes() == time.tobytes()
        assert np.array_equal(vec.choice, choice)

    @pytest.mark.parametrize("n", [1, 2, 7])
    def test_all_negative_zero_weights(self, n):
        vec = BalanceTable([-0.0] * n, n)
        prefix = np.concatenate(([0.0], np.cumsum(np.full(n, -0.0))))
        time, choice = _scalar_tables(prefix, n, n)
        assert vec.time.tobytes() == time.tobytes()
        assert np.array_equal(vec.choice, choice)
        assert vec.sizes(n) == [1] * n
