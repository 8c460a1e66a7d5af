"""Algorithm 1 (min-max partition DP) — exactness against brute force."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.balance_dp import (
    BalanceTable,
    balanced_partition,
    bottleneck,
    min_max_partition,
)


def brute_force_bottleneck(weights, p):
    """Minimal max-group weight over all contiguous p-partitions."""
    n = len(weights)
    best = float("inf")
    for cuts in itertools.combinations(range(1, n), p - 1):
        edges = [0, *cuts, n]
        worst = max(
            sum(weights[a:b]) for a, b in zip(edges, edges[1:])
        )
        best = min(best, worst)
    return best


class TestMinMaxPartition:
    def test_trivial_single_group(self):
        assert min_max_partition([1, 2, 3], 1) == [3]

    def test_each_block_own_group(self):
        assert min_max_partition([1, 2, 3], 3) == [1, 1, 1]

    def test_uniform_weights_split_evenly(self):
        sizes = min_max_partition([1.0] * 12, 4)
        assert sizes == [3, 3, 3, 3]

    def test_heavy_tail_gets_smaller_group(self):
        # Last block is huge: the optimum isolates it -> max group weight 5.
        weights = [1, 1, 1, 1, 1, 5]
        sizes = min_max_partition(weights, 2)
        assert sizes == [5, 1]
        assert bottleneck(weights, sizes) == 5

    def test_validation(self):
        with pytest.raises(ValueError):
            min_max_partition([], 1)
        with pytest.raises(ValueError):
            min_max_partition([1.0], 2)
        with pytest.raises(ValueError):
            min_max_partition([1.0], 0)
        with pytest.raises(ValueError):
            min_max_partition([-1.0, 1.0], 1)

    @pytest.mark.parametrize(
        "weights, message",
        [
            ([1.0, float("nan")], "finite"),
            ([float("inf"), 1.0], "finite"),
            ([float("-inf"), 1.0], "non-negative"),
            ([1.0, -1.0], "non-negative"),
            ([-0.5, float("nan")], "non-negative"),
            ([float("nan"), -0.5], "non-negative"),
            ([float("inf"), -0.5], "non-negative"),
            ([float("nan"), float("inf")], "finite"),
            ([float("nan"), float("-inf")], "non-negative"),
        ],
    )
    def test_weight_errors_in_order(self, weights, message):
        # A negative weight (-inf included) is reported before a NaN or
        # +inf one, wherever each sits.
        with pytest.raises(ValueError, match=f"must be {message}$"):
            BalanceTable(weights, 1)

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=1, max_size=9),
        st.integers(min_value=1, max_value=9),
    )
    def test_optimal_versus_brute_force(self, weights, p):
        if p > len(weights):
            return
        sizes = min_max_partition(weights, p)
        assert len(sizes) == p
        assert sum(sizes) == len(weights)
        assert all(s >= 1 for s in sizes)
        got = bottleneck(weights, sizes)
        best = brute_force_bottleneck(weights, p)
        assert got == pytest.approx(best, abs=1e-9)


class TestBalancedPartition:
    def test_returns_partition_scheme(self):
        p = balanced_partition([1.0, 2.0, 1.0, 2.0], 2)
        assert p.num_stages == 2
        assert p.num_blocks == 4

    def test_bottleneck_helper_validates(self):
        with pytest.raises(ValueError):
            bottleneck([1, 2, 3], [1, 1])

    @pytest.mark.parametrize("sizes", [[4, -1], [3, 0], [0, 3]])
    def test_bottleneck_rejects_empty_or_negative_groups(self, sizes):
        with pytest.raises(ValueError, match="sizes"):
            bottleneck([1, 2, 3], sizes)


class TestBalanceTableArguments:
    """Counts at the table's API are integers >= 1, checked by name."""

    @pytest.mark.parametrize("max_stages", [True, 2.0, "2", None])
    def test_max_stages_must_be_an_integer(self, max_stages):
        with pytest.raises(TypeError, match="max_stages"):
            BalanceTable([1.0, 2.0, 3.0], max_stages)

    def test_max_stages_must_be_positive(self):
        with pytest.raises(ValueError, match="max_stages"):
            BalanceTable([1.0, 2.0, 3.0], 0)

    def test_depth_must_be_an_integer(self):
        with pytest.raises(TypeError, match="p must"):
            min_max_partition([1.0, 2.0, 3.0], 2.0)

    @pytest.mark.parametrize("query", ["sizes", "bottleneck_value", "partition"])
    def test_query_counts_must_be_integers(self, query):
        table = BalanceTable([1.0, 2.0, 3.0, 4.0], 3)
        ask = getattr(table, query)
        with pytest.raises(TypeError, match="num_blocks"):
            ask(2, 2.5)
        with pytest.raises(TypeError, match="num_blocks"):
            ask(2, num_blocks=True)
        with pytest.raises(TypeError, match="stages"):
            ask(2.0)
        with pytest.raises(ValueError, match="stages"):
            ask(0)
        with pytest.raises(ValueError, match="num_blocks"):
            ask(1, 0)

    def test_numpy_integers_pass(self):
        table = BalanceTable([1.0, 2.0, 3.0, 4.0], np.int64(3))
        assert table.sizes(np.int64(2), np.int64(3)) == table.sizes(2, 3)
        assert bottleneck([1, 2, 3], [np.int64(2), 1]) == 3
