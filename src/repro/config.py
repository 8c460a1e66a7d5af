"""Configuration dataclasses shared across the AutoPipe reproduction.

Everything downstream (model cost models, the profiler, the planners, the
discrete-event simulator) is parameterised by three frozen dataclasses:

* :class:`ModelConfig` — the architecture of a transformer benchmark model
  (Table I of the paper).
* :class:`HardwareConfig` — a 3090-class GPU cluster (Section IV-A of the
  paper): per-GPU compute/memory and the interconnect.
* :class:`TrainConfig` — per-experiment training hyper-parameters
  (micro-batch size, global batch size, activation checkpointing).

All times produced from these configs are in **seconds**; all sizes in
**bytes**; all rates in **FLOP/s** or **bytes/s**.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro import _checks


@dataclass(frozen=True)
class ModelConfig:
    """Architecture of a GPT-2/BERT style transformer benchmark.

    Mirrors Table I of the paper.  ``ffn_hidden_size`` defaults to the
    conventional ``4 * hidden_size``; ``num_heads`` only affects cost-model
    bookkeeping, not partitioning.
    """

    name: str
    num_layers: int
    hidden_size: int
    num_heads: int
    seq_length: int = 1024
    vocab_size: int = 50257
    ffn_hidden_size: int = 0  # 0 -> 4 * hidden_size
    #: BERT-style models carry an extra pooler/classification head and use
    #: bidirectional attention; only the head block differs for our costs.
    is_bert: bool = False

    def __post_init__(self) -> None:
        for name in (
            "num_layers", "hidden_size", "num_heads", "seq_length", "vocab_size",
        ):
            _checks.count(name, getattr(self, name))
        if self.hidden_size % self.num_heads != 0:
            raise ValueError(
                f"hidden_size {self.hidden_size} not divisible by "
                f"num_heads {self.num_heads}"
            )
        if self.ffn_hidden_size == 0:
            object.__setattr__(self, "ffn_hidden_size", 4 * self.hidden_size)

    @property
    def head_dim(self) -> int:
        return self.hidden_size // self.num_heads


@dataclass(frozen=True)
class HardwareConfig:
    """A homogeneous GPU cluster in the style of the paper's testbed.

    Defaults model the paper's platform: 4 nodes x 4 NVIDIA 3090 (24 GB),
    100 Gb/s InfiniBand between nodes.  ``flops_efficiency`` and
    ``bandwidth_efficiency`` are the usual achieved/peak derates for
    transformer workloads.
    """

    name: str = "4x4x3090"
    num_nodes: int = 4
    gpus_per_node: int = 4
    #: peak dense fp16 throughput of one GPU, FLOP/s (3090 tensor core ~71T;
    #: transformer kernels reach a fraction of it).
    peak_flops: float = 71e12
    flops_efficiency: float = 0.32
    #: usable device memory per GPU, bytes: 24 GB minus ~3 GB of CUDA
    #: context, NCCL buffers and allocator fragmentation.
    gpu_memory: float = 21.0 * 2**30
    #: device memory bandwidth, bytes/s (3090 GDDR6X 936 GB/s).
    memory_bandwidth: float = 936e9
    memory_bandwidth_efficiency: float = 0.7
    #: inter-node link bandwidth, bytes/s (100 Gb/s IB).
    inter_node_bandwidth: float = 100e9 / 8
    #: intra-node (PCIe 4.0 x16) bandwidth, bytes/s.
    intra_node_bandwidth: float = 22e9
    bandwidth_efficiency: float = 0.75
    #: per-message latency, seconds (NCCL p2p launch + rendezvous).
    link_latency: float = 20e-6
    #: fixed per-kernel launch overhead charged once per block execution.
    kernel_launch_overhead: float = 12e-6

    def __post_init__(self) -> None:
        _checks.count("num_nodes", self.num_nodes)
        _checks.count("gpus_per_node", self.gpus_per_node)
        for name in (
            "peak_flops", "flops_efficiency", "gpu_memory",
            "inter_node_bandwidth", "intra_node_bandwidth",
            "bandwidth_efficiency",
        ):
            _checks.real(name, getattr(self, name), positive=True)
        if self.flops_efficiency > 1 or self.bandwidth_efficiency > 1:
            raise ValueError("efficiencies are fractions in (0, 1]")

    @property
    def num_gpus(self) -> int:
        return self.num_nodes * self.gpus_per_node

    @property
    def effective_flops(self) -> float:
        """Achieved FLOP/s for dense transformer kernels."""
        return self.peak_flops * self.flops_efficiency

    @property
    def effective_memory_bandwidth(self) -> float:
        """Achieved device-memory bandwidth in bytes/s."""
        return self.memory_bandwidth * self.memory_bandwidth_efficiency

    def effective_bandwidth(self, *, inter_node: bool = True) -> float:
        """Achieved point-to-point bandwidth in bytes/s."""
        raw = self.inter_node_bandwidth if inter_node else self.intra_node_bandwidth
        return raw * self.bandwidth_efficiency

    def replace(self, **changes) -> "HardwareConfig":
        return dataclasses.replace(self, **changes)


@dataclass(frozen=True)
class TrainConfig:
    """Per-experiment training hyper-parameters.

    ``global_batch_size`` must be a multiple of ``micro_batch_size``; the
    number of micro-batches per pipeline per iteration is derived once a
    data-parallel width is chosen (see :mod:`repro.parallel.grid`).
    """

    micro_batch_size: int
    global_batch_size: int
    activation_checkpointing: bool = True
    #: bytes per element of activations/weights in compute (fp16).
    dtype_bytes: int = 2
    #: total optimizer + gradient + master-weight bytes per parameter under
    #: Megatron-style mixed precision (fp16 weight 2 + fp32 grad 4 + fp32
    #: master 4 + Adam m/v 8 + fp16 grad buffer 2).
    bytes_per_param_state: int = 20

    def __post_init__(self) -> None:
        _checks.count("micro_batch_size", self.micro_batch_size)
        _checks.count("global_batch_size", self.global_batch_size)
        if self.global_batch_size % self.micro_batch_size != 0:
            raise ValueError(
                f"global batch {self.global_batch_size} not divisible by "
                f"micro-batch {self.micro_batch_size}"
            )

    def micro_batches_per_replica(self, data_parallel: int) -> int:
        """Micro-batches each pipeline replica processes per iteration."""
        _checks.count("data_parallel", data_parallel)
        if self.global_batch_size % data_parallel != 0:
            raise ValueError(
                f"global batch {self.global_batch_size} not divisible by "
                f"dp={data_parallel}"
            )
        per_replica = self.global_batch_size // data_parallel
        if per_replica % self.micro_batch_size != 0:
            raise ValueError(
                f"global batch {self.global_batch_size} not divisible by "
                f"dp={data_parallel} x mbs={self.micro_batch_size}"
            )
        m = per_replica // self.micro_batch_size
        if m == 0:
            raise ValueError("fewer samples than one micro-batch per replica")
        return m

    def replace(self, **changes) -> "TrainConfig":
        return dataclasses.replace(self, **changes)
