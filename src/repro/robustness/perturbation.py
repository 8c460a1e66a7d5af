"""Seeded, deterministic perturbation models over stage-time vectors.

AutoPipe's planner trusts point estimates of the per-block forward,
backward and comm times.  Real clusters jitter: kernels slow down under
contention, one device straggles persistently, a link degrades.  This
module turns those scenarios into *multiplicative factor draws* on the
aggregated per-stage times — the representation the whole search stack
already speaks — so one set of ``K`` draws applies consistently to every
candidate partition considered during a search:

* :class:`StageCostNoise` — i.i.d. lognormal noise on every stage's
  forward and backward time (``exp(sigma * z)``, median 1);
* :class:`Straggler` — a persistent slowdown of one stage's compute
  (a fixed stage, or a uniformly random stage per draw), applied with a
  given probability per draw;
* :class:`CommDegradation` — the comm time multiplied by a factor
  (congested/downgraded link) with a given probability per draw.

Draws are produced by :func:`draw_factors` from a single
``numpy.random.default_rng(seed)`` stream (PCG64), with the models
consuming the stream in sequence — the same ``(models, num_stages,
draws, seed)`` tuple yields bit-identical factors on every machine and
in every process.  A model with zero magnitude produces factors that are
*exactly* ``1.0``, and ``x * 1.0 == x`` bitwise, so zero-noise
perturbation reproduces the nominal simulation bit for bit
(tests/robustness/test_perturbation.py pins both properties).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.core.partition import StageTimes


class PerturbationModel:
    """Base class: multiplies factor arrays in place.

    ``sample`` receives the shared RNG plus the ``(draws, num_stages)``
    forward/backward factor matrices and the ``(draws,)`` comm factor
    vector, all initialised to ones, and multiplies its own perturbation
    into them.  Models must consume the RNG deterministically (a fixed
    number of variates for fixed ``(draws, num_stages)``) so that model
    composition stays reproducible.
    """

    def sample(
        self,
        rng: np.random.Generator,
        fwd: np.ndarray,
        bwd: np.ndarray,
        comm: np.ndarray,
    ) -> None:
        raise NotImplementedError


@dataclass(frozen=True)
class StageCostNoise(PerturbationModel):
    """Lognormal multiplicative noise on every stage's compute times.

    ``sigma`` is the standard deviation of the underlying normal; the
    factor is ``exp(sigma * z)`` with independent ``z`` per (draw, stage,
    direction).  ``sigma=0`` gives ``exp(0.0) == 1.0`` exactly (the RNG
    is still consumed, so mixing zero- and nonzero-sigma models in one
    list keeps downstream models' draws aligned).
    """

    sigma: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.sigma < float("inf"):
            raise ValueError(f"sigma must be finite and >= 0, got {self.sigma}")

    def sample(self, rng, fwd, bwd, comm) -> None:
        draws, n = fwd.shape
        fwd *= np.exp(self.sigma * rng.standard_normal((draws, n)))
        bwd *= np.exp(self.sigma * rng.standard_normal((draws, n)))


@dataclass(frozen=True)
class Straggler(PerturbationModel):
    """A persistent compute slowdown of one pipeline stage.

    With probability ``probability`` per draw, the chosen stage's forward
    and backward times are multiplied by ``slowdown``.  ``stage=None``
    picks a uniformly random stage per draw (an unknown straggler
    location); a fixed ``stage`` models a known-slow device.
    """

    slowdown: float
    stage: Optional[int] = None
    probability: float = 1.0

    def __post_init__(self) -> None:
        if not self.slowdown > 0 or not np.isfinite(self.slowdown):
            raise ValueError(f"slowdown must be finite and > 0, got {self.slowdown}")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {self.probability}")
        if self.stage is not None:
            # A positional second argument lands here: Straggler(1.5, 0.1)
            # is a float stage, not a probability.
            if isinstance(self.stage, bool) or not isinstance(
                self.stage, (int, np.integer)
            ):
                raise TypeError(
                    f"stage must be an integer or None, got {self.stage!r}"
                )
            if self.stage < 0:
                raise ValueError(f"stage must be >= 0, got {self.stage}")

    def sample(self, rng, fwd, bwd, comm) -> None:
        draws, n = fwd.shape
        hit = rng.random(draws) < self.probability
        if self.stage is None:
            stages = rng.integers(0, n, size=draws)
        else:
            if self.stage >= n:
                raise ValueError(
                    f"straggler stage {self.stage} out of range for "
                    f"{n} stages"
                )
            stages = np.full(draws, self.stage)
        factor = np.where(hit, self.slowdown, 1.0)
        rows = np.arange(draws)
        fwd[rows, stages] *= factor
        bwd[rows, stages] *= factor


@dataclass(frozen=True)
class CommDegradation(PerturbationModel):
    """Comm-bandwidth degradation: comm time scaled by ``factor``.

    With probability ``probability`` per draw the comm time is multiplied
    by ``factor`` (e.g. ``4.0`` for a link falling back to a quarter of
    its bandwidth).
    """

    factor: float
    probability: float = 1.0

    def __post_init__(self) -> None:
        if not self.factor > 0 or not np.isfinite(self.factor):
            raise ValueError(f"factor must be finite and > 0, got {self.factor}")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {self.probability}")

    def sample(self, rng, fwd, bwd, comm) -> None:
        draws = comm.shape[0]
        comm *= np.where(rng.random(draws) < self.probability, self.factor, 1.0)


@dataclass(frozen=True)
class StageFactors:
    """``K`` multiplicative perturbation draws for an ``n``-stage pipeline.

    ``fwd``/``bwd`` are ``(K, n)`` factor matrices, ``comm`` a ``(K,)``
    factor vector.  One :class:`StageFactors` is drawn per planning
    context and applied to *every* candidate's stage-time vector, so a
    draw means the same physical scenario for every partition compared
    under it.
    """

    fwd: np.ndarray
    bwd: np.ndarray
    comm: np.ndarray

    def __post_init__(self) -> None:
        if self.fwd.ndim != 2 or self.fwd.shape != self.bwd.shape:
            raise ValueError(
                f"need matching (K, num_stages) factor matrices, got "
                f"{self.fwd.shape} and {self.bwd.shape}"
            )
        if self.comm.shape != (self.fwd.shape[0],):
            raise ValueError(
                f"comm factors must have shape ({self.fwd.shape[0]},), "
                f"got {self.comm.shape}"
            )
        for arr in (self.fwd, self.bwd, self.comm):
            if not np.all(np.isfinite(arr)) or arr.min(initial=1.0) <= 0:
                raise ValueError("perturbation factors must be finite and > 0")

    @property
    def draws(self) -> int:
        return self.fwd.shape[0]

    @property
    def num_stages(self) -> int:
        return self.fwd.shape[1]

    def apply(self, times: StageTimes) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Perturbed ``(K, n)`` fwd/bwd matrices and ``(K,)`` comm vector."""
        if times.num_stages != self.num_stages:
            raise ValueError(
                f"factors cover {self.num_stages} stages, candidate has "
                f"{times.num_stages}"
            )
        fwd = self.fwd * np.asarray(times.fwd, dtype=np.float64)
        bwd = self.bwd * np.asarray(times.bwd, dtype=np.float64)
        comm = self.comm * times.comm
        return fwd, bwd, comm

    def kernel_comm(self, comm: float, columns: int = 1):
        """Per-draw comm ``self.comm * comm`` as the frontier kernel takes
        it: one float when every draw's is equal (the scalar sweep does the
        same adds, ~20% faster), else tiled for ``columns`` candidates."""
        per_draw = self.comm * comm
        if (per_draw == per_draw[0]).all():
            return float(per_draw[0])
        return np.tile(per_draw, columns)


def draw_factors(
    models: Sequence[PerturbationModel],
    num_stages: int,
    draws: int,
    seed: int,
) -> StageFactors:
    """Draw ``K`` composed factor sets from a fresh seeded PCG64 stream.

    Models are applied in sequence to the same stream, multiplying their
    factors together; the result is a pure function of the arguments
    (bit-identical across processes and machines).
    """
    if num_stages < 1:
        raise ValueError("need at least one stage")
    if draws < 1:
        raise ValueError("need at least one draw")
    rng = np.random.default_rng(seed)
    fwd = np.ones((draws, num_stages))
    bwd = np.ones((draws, num_stages))
    comm = np.ones(draws)
    for model in models:
        model.sample(rng, fwd, bwd, comm)
    return StageFactors(fwd=fwd, bwd=bwd, comm=comm)
