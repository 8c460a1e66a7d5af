"""Cluster-wide joint autotuner: (dp x pp x slice-count) end to end."""

import dataclasses

import pytest

from repro.core.strategy import autotune_config
from repro.parallel.grid import ParallelLayout, layouts_for


class TestJointSpace:
    def test_slice_candidates_bounded_by_warmup_depth(self, train):
        layout = ParallelLayout(8, 4)  # dp2, m = 64/(4*2) = 8
        assert list(layout.slice_candidates(train)) == [0, 1, 2, 3]

    def test_pp1_has_only_unsliced(self, train):
        assert list(ParallelLayout(4, 1).slice_candidates(train)) == [0]


class TestAutotune:
    @pytest.fixture(scope="class")
    def tuned(self, tiny_profile):
        return autotune_config(tiny_profile, 4)

    def test_covers_every_layout(self, tuned, tiny_profile):
        assert tuned.num_gpus == 4
        assert tuned.layouts_searched == len(
            layouts_for(4, tiny_profile.train)
        )
        # One candidate per (layout, slice-count) point of the space.
        assert len(tuned.candidates) >= tuned.layouts_searched

    def test_candidates_cover_every_layout_slice_pair(
        self, tuned, tiny_profile
    ):
        """Every layout fits here, so there is exactly one candidate per
        (layout, slice count) of ``layouts_for x slice_candidates``,
        shallowest pipeline first."""
        train = tiny_profile.train
        assert [(c.layout, c.slice_count) for c in tuned.candidates] == [
            (layout, count)
            for layout in layouts_for(4, train)
            for count in layout.slice_candidates(train)
        ]

    def test_best_is_the_executed_argmin(self, tuned):
        feasible = [c for c in tuned.candidates if c.ok]
        assert tuned.best in feasible
        assert all(
            tuned.best.iteration_seconds <= c.iteration_seconds
            for c in feasible
        )
        assert tuned.best.partition is not None
        assert tuned.best.planner in ("oracle", "planner", "trivial")

    def test_beats_or_matches_every_single_layout(self, tuned):
        """The joint argmin can never lose to a fixed-layout choice."""
        for c in tuned.candidates:
            if c.ok:
                assert tuned.best.iteration_seconds <= c.iteration_seconds

    def test_search_metadata(self, tuned):
        assert tuned.search_seconds > 0.0
        for c in tuned.candidates:
            if c.ok and c.layout.pipeline_stages > 1:
                assert c.plan_seconds >= 0.0
                assert 0 <= c.algorithm2_slices < c.layout.pipeline_stages

    def test_infeasible_cluster_raises(self, tiny_profile):
        """A cluster where no layout fits in memory raises instead of
        returning a bogus best; a layout of no GPUs is malformed."""
        hardware = dataclasses.replace(tiny_profile.hardware, gpu_memory=1.0)
        starved = dataclasses.replace(tiny_profile, hardware=hardware)
        with pytest.raises(RuntimeError, match="no feasible"):
            autotune_config(starved, 4)
        with pytest.raises(ValueError):
            ParallelLayout(0, 1)


class TestExperiment:
    def test_run_assembles_rows(self):
        from repro.experiments import autotune as exp

        result = exp.run(gpu_counts=(2,))
        assert result.rows
        assert any(r[-1] == "<== best" for r in result.rows)
        assert "gpus2" in result.meta["best"]
        chosen = result.meta["best"]["gpus2"]
        assert chosen["iteration_ms"] > 0.0
