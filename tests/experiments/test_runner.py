"""SweepRunner: ordering, caching, invalidation and per-cell seeding."""

import pickle
import random

import numpy as np
import pytest

from repro.experiments.runner import (
    SweepRunner,
    cell_seed,
    default_runner,
    set_default_runner,
)


def square(x):
    return x * x


def pair(a, b):
    return (a, b)


def noisy(x):
    """A cell consuming *global* RNG state — the determinism hazard."""
    return (x, random.random(), float(np.random.random()))


class TestInline:
    def test_results_in_cell_order(self):
        runner = SweepRunner()
        assert runner.run(square, [(3,), (1,), (2,)]) == [9, 1, 4]

    def test_multi_arg_cells(self):
        runner = SweepRunner()
        assert runner.run(pair, [(1, 2), (3, 4)]) == [(1, 2), (3, 4)]

    def test_empty_sweep(self):
        assert SweepRunner().run(square, []) == []


class TestCache:
    def test_second_run_is_served_from_disk(self, tmp_path):
        runner = SweepRunner(cache_dir=tmp_path)
        first = runner.run(square, [(2,), (3,)])
        assert runner.cache_misses == 2 and runner.cache_hits == 0
        second = runner.run(square, [(2,), (3,)])
        assert second == first == [4, 9]
        assert runner.cache_hits == 2

    def test_cache_shared_across_runners(self, tmp_path):
        SweepRunner(cache_dir=tmp_path).run(square, [(5,)])
        other = SweepRunner(cache_dir=tmp_path)
        assert other.run(square, [(5,)]) == [25]
        assert other.cache_hits == 1

    def test_cell_key_tracks_package_source(self, tmp_path):
        """A Table III cell's key changes when a module it depends on
        through the planners — here the gradient-allreduce cost model —
        changes, although the cell's own module does not."""
        from repro.experiments import table3
        from repro.models.zoo import GPT2_345M

        from tests.conftest import run_with_edited_package

        cell = (GPT2_345M, 4, 8, 128)
        out = run_with_edited_package(tmp_path, "parallel/data_parallel.py", (
            "from repro.experiments import table3\n"
            "from repro.experiments.runner import SweepRunner\n"
            "from repro.models.zoo import GPT2_345M\n"
            "cell = (GPT2_345M, 4, 8, 128)\n"
            "print(SweepRunner().cell_key(table3.run_cell, cell))\n"
        )).strip()
        key = SweepRunner().cell_key(table3.run_cell, cell)
        assert len(out) == len(key) == 64
        assert out != key

    def test_different_args_different_keys(self, tmp_path):
        runner = SweepRunner(cache_dir=tmp_path)
        assert runner.cell_key(square, (1,)) != runner.cell_key(square, (2,))
        assert runner.cell_key(square, (1,)) != runner.cell_key(pair, (1,))

    def test_corrupt_entry_recomputed(self, tmp_path):
        runner = SweepRunner(cache_dir=tmp_path)
        runner.run(square, [(6,)])
        key = runner.cell_key(square, (6,))
        (tmp_path / f"{key}.pkl").write_bytes(b"not a pickle")
        fresh = SweepRunner(cache_dir=tmp_path)
        assert fresh.run(square, [(6,)]) == [36]
        assert fresh.cache_misses == 1

    @pytest.mark.parametrize("stale", [
        b"cgone_cell_module\nGone\n.",
        b"crepro.experiments.runner\nGone\n.",
    ], ids=["deleted-module", "deleted-class"])
    def test_stale_class_entry_recomputed(self, tmp_path, stale):
        """An entry pickling a renamed or deleted class is a miss."""
        runner = SweepRunner(cache_dir=tmp_path)
        key = runner.cell_key(square, (6,))
        (tmp_path / f"{key}.pkl").write_bytes(stale)
        assert runner.run(square, [(6,)]) == [36]
        assert runner.cache_misses == 1
        with open(tmp_path / f"{key}.pkl", "rb") as fh:
            assert pickle.load(fh) == 36

    def test_entries_are_atomic_pickles(self, tmp_path):
        runner = SweepRunner(cache_dir=tmp_path)
        runner.run(square, [(7,)])
        key = runner.cell_key(square, (7,))
        with open(tmp_path / f"{key}.pkl", "rb") as fh:
            assert pickle.load(fh) == 49
        assert not list(tmp_path.glob(".tmp-*"))


class TestSeedDeterminism:
    def test_inline_and_replayed_are_bit_identical(self, tmp_path):
        """A cell result must not depend on how it was executed."""
        cells = [(i,) for i in range(4)]
        inline = SweepRunner().run(noisy, cells)
        cached = SweepRunner(cache_dir=tmp_path)
        first = cached.run(noisy, cells)
        replayed = cached.run(noisy, cells)
        assert cached.cache_hits == len(cells)
        assert inline == first == replayed

    def test_repeated_inline_runs_are_identical(self):
        """Seeding per cell, not per sweep: no leakage between runs."""
        a = SweepRunner().run(noisy, [(1,), (2,)])
        b = SweepRunner().run(noisy, [(2,), (1,)])
        assert a[0] == b[1] and a[1] == b[0]

    def test_seed_depends_on_cell_identity_not_source(self):
        assert cell_seed(noisy, (1,)) != cell_seed(noisy, (2,))
        assert cell_seed(noisy, (1,)) != cell_seed(square, (1,))
        # Stable across calls (and, by construction, across processes).
        assert cell_seed(noisy, (1,)) == cell_seed(noisy, (1,))


class TestDefaultRunner:
    def test_rebind_and_restore(self):
        original = default_runner()
        try:
            custom = SweepRunner()
            assert set_default_runner(custom) is custom
            assert default_runner() is custom
        finally:
            set_default_runner(original)


class TestPurge:
    def test_purge_removes_cached_cells(self, tmp_path):
        runner = SweepRunner(cache_dir=tmp_path)
        runner.run(square, [(2,), (3,), (4,)])
        assert runner.purge() == 3
        assert not list(tmp_path.glob("*.pkl"))
        assert runner.purge() == 0

    def test_purge_spares_foreign_files(self, tmp_path):
        (tmp_path / "notes.txt").write_text("keep me")
        runner = SweepRunner(cache_dir=tmp_path)
        runner.run(square, [(5,)])
        assert runner.purge() == 1
        assert (tmp_path / "notes.txt").exists()

    def test_purge_without_cache_dir_is_noop(self):
        assert SweepRunner().purge() == 0

