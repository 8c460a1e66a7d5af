"""run_cells: ordering and per-cell seeding."""

import random

import numpy as np

from repro.experiments.common import cell_seed, run_cells


def square(x):
    return x * x


def pair(a, b):
    return (a, b)


def noisy(x):
    """A cell consuming *global* RNG state — the determinism hazard."""
    return (x, random.random(), float(np.random.random()))


class TestInline:
    def test_results_in_cell_order(self):
        assert run_cells(square, [(3,), (1,), (2,)]) == [9, 1, 4]

    def test_multi_arg_cells(self):
        assert run_cells(pair, [(1, 2), (3, 4)]) == [(1, 2), (3, 4)]

    def test_empty_sweep(self):
        assert run_cells(square, []) == []


class TestSeedDeterminism:
    def test_repeated_inline_runs_are_identical(self):
        """Seeding per cell, not per sweep: no leakage between runs."""
        a = run_cells(noisy, [(1,), (2,)])
        b = run_cells(noisy, [(2,), (1,)])
        assert a[0] == b[1] and a[1] == b[0]

    def test_seed_depends_on_cell_identity_not_source(self):
        assert cell_seed(noisy, (1,)) != cell_seed(noisy, (2,))
        assert cell_seed(noisy, (1,)) != cell_seed(square, (1,))
        # Stable across calls (and, by construction, across processes).
        assert cell_seed(noisy, (1,)) == cell_seed(noisy, (1,))
