"""Analytic memory model tests and the paper's OOM calibration."""

import dataclasses
import functools
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.baselines.common import PlannedConfig, evaluate_config
from repro.config import HardwareConfig, ModelConfig, TrainConfig
from repro.core.balance_dp import balanced_partition
from repro.core.partition import PartitionScheme, shift_repair
from repro.core.planner import _PlannerSearch, _UnitSpace, plan_partition
from repro.hardware.cluster import Cluster
from repro.hardware.device import DEFAULT_CLUSTER_HW
from repro.models.blocks import Block, BlockKind
from repro.models.zoo import BERT_LARGE, GPT2_1_3B, GPT2_345M, GPT2_762M
from repro.parallel.memory_model import (
    config_memory,
    interleaved_stage_memory,
    pipeline_fits,
    stage_memory,
)
from repro.profiling import profile_model
from repro.profiling.modelconfig import BlockProfile, ModelProfile
from repro.runtime.trainer import run_pipeline
from repro.schedules.interleaved import build_interleaved, interleaved_chunks
from repro.sim.graph_exec import execute_fast


def make_profile(model, mbs, m=8):
    return profile_model(
        model, DEFAULT_CLUSTER_HW,
        TrainConfig(micro_batch_size=mbs, global_batch_size=mbs * m),
    )


class TestInFlight:
    def test_1f1b_rule(self):
        """One stash byte per block, nothing else: the peak is the count."""
        blocks = tuple(
            dataclasses.replace(bp, params=0.0, stash_bytes=1.0,
                                workspace_bytes=0.0)
            for bp in _synthetic_profile(4, 0).blocks
        )
        profile = dataclasses.replace(_synthetic_profile(4, 0), blocks=blocks)
        p = PartitionScheme.from_sizes((1, 1, 1, 1))
        assert stage_memory(profile, p, 0, 8) == 4
        assert stage_memory(profile, p, 3, 8) == 1
        assert stage_memory(profile, p, 0, 2) == 2
        assert stage_memory(profile, p, 3, 8, schedule="gpipe") == 8

    def test_bad_stage(self, tiny_profile):
        p = balanced_partition(tiny_profile.block_times(), 4)
        with pytest.raises(ValueError, match="stage"):
            stage_memory(tiny_profile, p, 4, 8)


class TestStageMemory:
    def test_gpipe_exceeds_1f1b(self, tiny_profile):
        p = balanced_partition(tiny_profile.block_times(), 4)
        one_f = stage_memory(tiny_profile, p, 0, 12, schedule="1f1b")
        gpipe = stage_memory(tiny_profile, p, 0, 12, schedule="gpipe")
        assert gpipe > one_f

    def test_unknown_schedule(self, tiny_profile):
        p = balanced_partition(tiny_profile.block_times(), 2)
        with pytest.raises(ValueError):
            stage_memory(tiny_profile, p, 0, 8, schedule="dream")

    def test_fits_empty_for_small_model(self, tiny_profile):
        p = balanced_partition(tiny_profile.block_times(), 4)
        assert pipeline_fits(tiny_profile, p, 8) == []


class TestInterleavedMemory:
    def test_exceeds_1f1b_on_first_stage(self, tiny_profile):
        p = balanced_partition(tiny_profile.block_times(), 3)
        chunks = interleaved_chunks(tiny_profile, 3, 2)
        one_f = stage_memory(tiny_profile, p, 0, 6)
        inter = interleaved_stage_memory(tiny_profile, chunks[0], 0, 3, 6)
        assert inter > one_f * 0.8  # same ballpark, typically larger

    def test_empty_chunks_rejected(self, tiny_profile):
        with pytest.raises(ValueError):
            interleaved_stage_memory(tiny_profile, [], 0, 3, 6)


class TestPaperOOMCalibration:
    """The feasibility boundaries the evaluation section depends on."""

    def test_345m_4stage_mbs32_fits(self):
        profile = make_profile(GPT2_345M, 32)
        p = balanced_partition(profile.block_times(), 4)
        assert pipeline_fits(profile, p, 8) == []

    def test_762m_4stage_mbs24_fits_mbs32_ooms(self):
        fits = make_profile(GPT2_762M, 24)
        p = balanced_partition(fits.block_times(), 4)
        assert pipeline_fits(fits, p, 8) == []
        ooms = make_profile(GPT2_762M, 32)
        p = balanced_partition(ooms.block_times(), 4)
        assert pipeline_fits(ooms, p, 8) != []

    def test_13b_2stage_ooms_4stage_fits(self):
        profile = make_profile(GPT2_1_3B, 16)
        two = balanced_partition(profile.block_times(), 2)
        four = balanced_partition(profile.block_times(), 4)
        assert pipeline_fits(profile, two, 8) != []
        assert pipeline_fits(profile, four, 8) == []


_BAD_INPUTS = {
    "m zero": (lambda p, s: stage_memory(p, s, 0, 0), ValueError,
               "num_micro_batches"),
    "m negative": (lambda p, s: stage_memory(p, s, 0, -3), ValueError,
                   "num_micro_batches"),
    "m fractional": (lambda p, s: stage_memory(p, s, 0, 2.5), TypeError,
                     "num_micro_batches"),
    "m bool": (lambda p, s: pipeline_fits(p, s, True), TypeError,
               "num_micro_batches"),
    "stage out of range": (lambda p, s: stage_memory(p, s, 4, 8), ValueError,
                           "stage"),
    "short partition": (
        lambda p, s: stage_memory(
            p, PartitionScheme.from_sizes(s.sizes[:-1]), 0, 8),
        ValueError, "partition"),
    "short replicas": (
        lambda p, s: config_memory(p, s, (1, 1, 1), 8, 4), ValueError,
        "replicas"),
    "zero replicas": (
        lambda p, s: config_memory(p, s, (1, 0, 1, 1), 8, 4), ValueError,
        "replicas"),
    "semantics typo": (
        lambda p, s: config_memory(p, s, (2,) * 4, 8, 4, "subbatc"),
        ValueError, "semantics"),
    "zero mbs": (
        lambda p, s: config_memory(p, s, (1,) * 4, 8, 0, "subbatch"),
        ValueError, "micro_batch_size"),
    "interleaved m zero": (
        lambda p, s: interleaved_stage_memory(
            p, interleaved_chunks(p, 3, 2)[0], 0, 3, 0),
        ValueError, "num_micro_batches"),
}


@pytest.mark.parametrize("case", sorted(_BAD_INPUTS))
def test_bad_input_raises_naming_the_argument(case, tiny_profile):
    call, error, name = _BAD_INPUTS[case]
    scheme = balanced_partition(tiny_profile.block_times(), 4)
    with pytest.raises(error, match=name):
        call(tiny_profile, scheme)


# -- the model against the DES ----------------------------------------------

_MODEL = ModelConfig(name="mem-prop", num_layers=1, hidden_size=64,
                     num_heads=4)
_TRAIN = TrainConfig(micro_batch_size=1, global_batch_size=8)


def _synthetic_profile(num_blocks: int, seed: int) -> ModelProfile:
    """Random integral byte counts: every summation order is exact."""
    rng = random.Random(seed)
    blocks = tuple(
        BlockProfile(
            block=Block(index=i, kind=BlockKind.ATTENTION, layer_index=i),
            fwd_time=rng.uniform(0.5, 2.0), bwd_time=rng.uniform(0.5, 4.0),
            params=float(rng.randint(0, 10**7)),
            activation_out_bytes=1.0,
            stash_bytes=float(rng.randint(0, 10**8)),
            workspace_bytes=float(rng.randint(0, 10**9)),
        )
        for i in range(num_blocks)
    )
    return ModelProfile(
        model=_MODEL, hardware=HardwareConfig(), train=_TRAIN,
        blocks=blocks, comm_time=0.1, boundary_bytes=1.0,
    )


@settings(max_examples=200, deadline=None)
@given(
    blocks=st.integers(min_value=1, max_value=12),
    depth=st.integers(min_value=1, max_value=8),
    m=st.integers(min_value=1, max_value=16),
    schedule=st.sampled_from(("1f1b", "gpipe")),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_model_equals_des_peaks(blocks, depth, m, schedule, seed):
    """1F1B and GPipe predictions are the DES's peaks bit for bit."""
    depth = min(depth, blocks)
    profile = _synthetic_profile(blocks, seed)
    cuts = sorted(random.Random(seed).sample(range(1, blocks), depth - 1))
    partition = PartitionScheme.from_boundaries(blocks, cuts)
    des = run_pipeline(profile, partition, m, schedule=schedule).peak_memory
    for s in range(depth):
        predicted = stage_memory(profile, partition, s, m, schedule=schedule)
        assert predicted.hex() == float(des[s]).hex()


@functools.lru_cache(maxsize=None)
def _zoo_profile(name: str, mbs: int) -> ModelProfile:
    model = {"gpt2": GPT2_345M, "bert": BERT_LARGE}[name]
    return make_profile(model, mbs)


@settings(max_examples=100, deadline=None)
@given(
    model=st.sampled_from(("gpt2", "bert")),
    mbs=st.sampled_from((1, 4, 16, 32)),
    depth=st.sampled_from((2, 3, 4, 6)),
    chunks=st.sampled_from((2, 3, 4)),
    rounds=st.integers(min_value=1, max_value=4),
)
def test_interleaved_model_within_one_percent_of_des(
    model, mbs, depth, chunks, rounds
):
    """The interleaved prediction holds each device's peak to 1%.

    Both zoo models have 24 identical layers, so ``depth * chunks`` must
    divide 24.
    """
    assume(24 % (depth * chunks) == 0)
    profile = _zoo_profile(model, mbs)
    m = depth * rounds
    cluster = Cluster(profile.hardware)
    des = execute_fast(
        build_interleaved(profile, depth, m, num_chunks=chunks), cluster,
        device_map=cluster.pipeline_devices(depth),
    ).peak_memory
    device_chunks = interleaved_chunks(profile, depth, chunks)
    for s in range(depth):
        predicted = interleaved_stage_memory(
            profile, device_chunks[s], s, depth, m
        )
        assert predicted == pytest.approx(des[s], rel=0.01)


def _layered_profile(num_layers: int, seed: int) -> ModelProfile:
    """An embedding, ``num_layers`` (attention, FFN) layers and a head,
    with random integral byte counts: every summation order is exact."""
    kinds = (
        [(BlockKind.EMBEDDING, -1)]
        + [(kind, layer) for layer in range(num_layers)
           for kind in (BlockKind.ATTENTION, BlockKind.FFN)]
        + [(BlockKind.FINAL_NORM, -1), (BlockKind.LM_HEAD, -1)]
    )
    base = _synthetic_profile(len(kinds), seed)
    blocks = tuple(
        dataclasses.replace(
            bp, block=Block(index=i, kind=kind, layer_index=layer)
        )
        for i, (bp, (kind, layer)) in enumerate(zip(base.blocks, kinds))
    )
    return dataclasses.replace(base, blocks=blocks)


@settings(max_examples=40, deadline=None)
@given(
    depth=st.sampled_from((2, 4)),
    rounds=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_interleaved_model_equals_des_on_random_profiles(depth, rounds,
                                                         seed):
    """Chunks of unequal stash: a device can peak after its first warmup
    window, and the replayed ledger still equals the DES bit for bit."""
    profile = _layered_profile(8, seed)
    m = depth * rounds
    cluster = Cluster(profile.hardware)
    des = execute_fast(
        build_interleaved(profile, depth, m, num_chunks=2), cluster,
        device_map=cluster.pipeline_devices(depth),
    ).peak_memory
    device_chunks = interleaved_chunks(profile, depth, 2)
    for s in range(depth):
        predicted = interleaved_stage_memory(
            profile, device_chunks[s], s, depth, m
        )
        assert predicted.hex() == float(des[s]).hex()


# -- one fits verdict: peak <= cap -------------------------------------------


def _with_cap(profile: ModelProfile, cap: float) -> ModelProfile:
    hardware = dataclasses.replace(profile.hardware, gpu_memory=cap)
    return dataclasses.replace(profile, hardware=hardware)


class TestFitsBoundary:
    """A cap equal to the worst stage's peak fits; one ulp less does not."""

    def test_planner_memory_cap(self, tiny_profile):
        free = plan_partition(tiny_profile, 3, 8)
        space = _UnitSpace(tiny_profile, "sublayer")
        peak = max(space.memory.stage_peaks(free.partition.sizes, 8))
        at = plan_partition(tiny_profile, 3, 8, memory_cap=peak)
        assert at.partition == free.partition
        below = np.nextafter(peak, 0)
        try:
            capped = plan_partition(tiny_profile, 3, 8, memory_cap=below)
        except RuntimeError:
            return
        assert capped.partition != free.partition

    def test_planner_repair_moves_match_config_memory(self, tiny_profile):
        """The capped Planner's second seed is :func:`shift_repair` of its
        Algorithm-1 seed with every move scored by :func:`config_memory`;
        the seed alone starts the search when it fits."""
        mbs = tiny_profile.train.micro_batch_size
        free = _PlannerSearch(
            tiny_profile, "sublayer", 4, 8, comm_mode="paper",
            cooldown_adjust=True, memory_cap=None, sim_cache=None,
        )
        free.seed()
        (sizes,) = free.queue
        peaks = config_memory(
            tiny_profile, PartitionScheme.from_sizes(sizes), (1,) * 4, 8, mbs
        )
        most_moves = repaired = 0
        for cap in np.linspace(min(peaks), max(peaks), 9):
            moves = []

            def spec_peaks(trial):
                moves.append(trial)
                return config_memory(
                    tiny_profile, PartitionScheme.from_sizes(trial),
                    (1,) * 4, 8, mbs,
                )

            spec = shift_repair(
                sizes, spec_peaks, cap, tiny_profile.num_blocks
            )
            most_moves = max(most_moves, len(moves))
            search = _PlannerSearch(
                tiny_profile, "sublayer", 4, 8, comm_mode="paper",
                cooldown_adjust=True, memory_cap=float(cap), sim_cache=None,
            )
            search.seed()
            want = [sizes] if spec in (None, sizes) else [sizes, spec]
            assert list(search.queue) == want
            repaired += len(want) == 2
        assert most_moves >= 3 and repaired >= 1

    @pytest.mark.parametrize("semantics", ["stream", "subbatch"])
    def test_evaluate_config_oom(self, tiny_profile, semantics):
        scheme = balanced_partition(tiny_profile.block_times(), 3)
        config = PlannedConfig(
            planner="probe", partition=scheme, replicas=(2,) * 3,
            num_gpus=6, search_seconds=0.0, semantics=semantics,
        )
        peak = max(config_memory(tiny_profile, scheme, (2,) * 3, 16, 4,
                                 semantics))
        at = evaluate_config(_with_cap(tiny_profile, peak), config, 64)
        assert not at.oom
        below = _with_cap(tiny_profile, np.nextafter(peak, 0))
        assert evaluate_config(below, config, 64).oom
