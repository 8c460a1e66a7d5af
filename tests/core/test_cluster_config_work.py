"""Golden cluster-configuration test: what the two cluster planners choose.

``autopipe_config`` (the paper's shallowest-fit rule) and
``autotune_config`` (the joint dp x pp x slice-count search) are the
only callers of the memory-capped Planner that walk whole clusters.
Their other tests check properties of the answer; this corpus pins the
answer itself, per cell:

* ``autopipe_config``'s ``(dp, pp, sizes, float.hex(predicted))``, or
  ``"RuntimeError"`` when no depth fits;
* for ``autotune_config``, each layout's ``(planner, sizes,
  algorithm2_slices)`` literally, and every candidate's ``(layout,
  slice_count, status, planner, sizes, float.hex(iteration_seconds),
  float.hex(startup_seconds), algorithm2_slices)`` as the SHA-256 of
  that text (the 16-GPU cells have 31 candidates each); or
  ``"RuntimeError"`` when no candidate is feasible.

The corpus: every Table III and Table IV cell, the four Fig. 12 cells,
the autotune experiment's 8-GPU cell, and gpt2-1.3b at micro-batch 64
on 2 GPUs, where no layout fits.  Table IV's gpt2-345m, mbs 32, 4 GPUs,
Gbs 512 cell is the one where the oracle's depth-2 argmin breaks the
memory cap and the capped Planner takes over.

To regenerate after a deliberate change, print :func:`cluster_work`
over :data:`CELLS`.
"""

import hashlib

import pytest

from repro.config import TrainConfig
from repro.core.strategy import autopipe_config, autotune_config
from repro.hardware.device import DEFAULT_CLUSTER_HW
from repro.models.zoo import MODEL_ZOO
from repro.profiling import profile_model

#: cell id -> (model, micro-batch size, gpus, global batch size).
CELLS = {
    **{
        f"t3-gpt2-345m-g{gpus}-b{gbs}": ("gpt2-345m", 4, gpus, gbs)
        for gpus in (4, 16) for gbs in (128, 256, 512)
    },
    **{
        f"t4-{model}-g{gpus}-b{gbs}": (model, mbs, gpus, gbs)
        for model, mbs in (("gpt2-345m", 32), ("gpt2-1.3b", 16))
        for gpus in (4, 8) for gbs in (512, 1024, 2048)
    },
    **{
        f"f12-{model}": (model, mbs, 16, 512)
        for model, mbs in (
            ("gpt2-345m", 32), ("gpt2-762m", 32), ("gpt2-1.3b", 16),
            ("bert-large", 64),
        )
    },
    "autotune-gpt2-345m-g8-b128": ("gpt2-345m", 4, 8, 128),
    "infeasible-gpt2-1.3b-g2": ("gpt2-1.3b", 64, 2, 128),
}


def _profile(model, mbs, gbs):
    train = TrainConfig(micro_batch_size=mbs, global_batch_size=gbs)
    return profile_model(MODEL_ZOO[model], DEFAULT_CLUSTER_HW, train)


def cluster_work(model, mbs, gpus, gbs):
    """``(autopipe, autotune layouts, autotune candidate digest)``."""
    profile = _profile(model, mbs, gbs)
    try:
        cfg = autopipe_config(profile, gpus, gbs)
        autopipe = (
            cfg.replicas[0], cfg.num_stages, cfg.partition.sizes,
            float.hex(cfg.predicted),
        )
    except RuntimeError:
        autopipe = "RuntimeError"
    try:
        tuned = autotune_config(profile, gpus)
    except RuntimeError:
        return autopipe, "RuntimeError", "RuntimeError"
    layouts = {}
    lines = []
    for c in tuned.candidates:
        sizes = None if c.partition is None else c.partition.sizes
        layouts[str(c.layout)] = (c.planner, sizes, c.algorithm2_slices)
        lines.append(repr((
            str(c.layout), c.slice_count, c.status, c.planner, sizes,
            float.hex(c.iteration_seconds), float.hex(c.startup_seconds),
            c.algorithm2_slices,
        )))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    return autopipe, layouts, digest


GOLDEN = {
    'autotune-gpt2-345m-g8-b128':
    ((8, 1, (51,), '0x1.13c3e3afd91e6p+1'),
     {'dp1xpp8': ('planner', (7, 6, 6, 6, 7, 7, 6, 6), 2),
      'dp2xpp4': ('oracle', (14, 13, 12, 12), 1),
      'dp4xpp2': ('oracle', (26, 25), 1),
      'dp8xpp1': ('trivial', (51,), 0)},
     'f3ceef0ddb9f5db3f7424caae4bb9344bce5b6871672b2f4ddfecb65dea36c5d'),
    'f12-bert-large':
    ((8, 2, (26, 25), '0x1.f75f1c678fa44p+1'),
     {'dp1xpp16': ('planner',
                   (4, 4, 3, 3, 3, 3, 3, 4, 3, 3, 3, 3, 3, 3, 3, 3),
                   4),
      'dp2xpp8': ('planner', (7, 6, 6, 6, 7, 7, 6, 6), 2),
      'dp4xpp4': ('oracle', (13, 14, 14, 10), 1),
      'dp8xpp2': ('oracle', (20, 31), 1)},
     'b7c1433202ebf173f6e2cfce92abedc4cf771994c3ab21d7c3ced8374a67e115'),
    'f12-gpt2-1.3b':
    ((4, 4, (13, 13, 12, 13), '0x1.5d5dfd810cf48p+4'),
     {'dp16xpp1': ('trivial', (51,), 0),
      'dp1xpp16': ('planner',
                   (4, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 4, 3, 4),
                   3),
      'dp2xpp8': ('planner', (7, 6, 6, 6, 6, 7, 6, 7), 2),
      'dp4xpp4': ('oracle', (14, 12, 12, 13), 1),
      'dp8xpp2': ('', None, 0)},
     '4312e973b135cc9cb650d25f185a8ceec2a441818be20aa417fd266eef8ac82e'),
    'f12-gpt2-345m':
    ((8, 2, (30, 21), '0x1.8a29c41bbb1d3p+2'),
     {'dp16xpp1': ('trivial', (51,), 0),
      'dp1xpp16': ('planner',
                   (4, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 4, 4, 3, 3, 3),
                   3),
      'dp2xpp8': ('planner', (7, 6, 6, 6, 7, 7, 6, 6), 2),
      'dp4xpp4': ('oracle', (16, 13, 11, 11), 1),
      'dp8xpp2': ('oracle', (30, 21), 1)},
     '8a11ef2b2a9fcdf4900b010480fcac3183d9d87d6b2204ddae5a1ff10a24cc1f'),
    'f12-gpt2-762m':
    ((4, 4, (19, 20, 20, 16), '0x1.0dc57d6f96f5ep+4'),
     {'dp16xpp1': ('trivial', (75,), 0),
      'dp1xpp16': ('planner',
                   (6, 5, 5, 5, 4, 4, 4, 4, 5, 5, 5, 5, 5, 5, 4, 4),
                   4),
      'dp2xpp8': ('planner', (10, 10, 9, 9, 9, 10, 9, 9), 2),
      'dp4xpp4': ('planner', (19, 20, 20, 16), 1),
      'dp8xpp2': ('', None, 0)},
     '2e749b016a31bef95a695dea7cde48fd2523501ca59ca8af5003710ab60445ce'),
    'infeasible-gpt2-1.3b-g2':
    ('RuntimeError', 'RuntimeError', 'RuntimeError'),
    't3-gpt2-345m-g16-b128':
    ((16, 1, (51,), '0x1.13c3e3afd91e6p+0'),
     {'dp16xpp1': ('trivial', (51,), 0),
      'dp1xpp16': ('planner',
                   (4, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 4, 4, 3, 3, 3),
                   3),
      'dp2xpp8': ('planner', (7, 6, 6, 6, 7, 7, 6, 6), 2),
      'dp4xpp4': ('oracle', (14, 13, 13, 11), 1),
      'dp8xpp2': ('oracle', (27, 24), 1)},
     'b25203031fda66daed6afc1b33e23fcf5a286dec4055ed0016bffd07e45e4a73'),
    't3-gpt2-345m-g16-b256':
    ((16, 1, (51,), '0x1.13c3e3afd91e6p+1'),
     {'dp16xpp1': ('trivial', (51,), 0),
      'dp1xpp16': ('planner',
                   (4, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 4, 4, 3, 3, 3),
                   3),
      'dp2xpp8': ('planner', (7, 6, 6, 6, 7, 7, 6, 6), 2),
      'dp4xpp4': ('oracle', (14, 13, 12, 12), 1),
      'dp8xpp2': ('oracle', (26, 25), 1)},
     '8862eb23d9ed0540b1688691a1802cdacef4e4db76036fcebc7b873d9182ac20'),
    't3-gpt2-345m-g16-b512':
    ((16, 1, (51,), '0x1.13c3e3afd91e6p+2'),
     {'dp16xpp1': ('trivial', (51,), 0),
      'dp1xpp16': ('planner',
                   (4, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 4, 4, 3, 3, 3),
                   3),
      'dp2xpp8': ('planner', (7, 6, 6, 6, 7, 7, 6, 6), 2),
      'dp4xpp4': ('oracle', (14, 13, 12, 12), 1),
      'dp8xpp2': ('oracle', (26, 25), 1)},
     'a6ac54970340cedb0ddc4505ab2d6c1a4acbe95e020c43fb49d5e515fdc63467'),
    't3-gpt2-345m-g4-b128':
    ((4, 1, (51,), '0x1.13c3e3afd91e6p+2'),
     {'dp1xpp4': ('oracle', (14, 13, 12, 12), 1),
      'dp2xpp2': ('oracle', (26, 25), 1),
      'dp4xpp1': ('trivial', (51,), 0)},
     '2b1e79f7dbdf815bc320f63db6e2f8697443ec4761bdfdb1aec594d20d05ac39'),
    't3-gpt2-345m-g4-b256':
    ((4, 1, (51,), '0x1.13c3e3afd91e6p+3'),
     {'dp1xpp4': ('oracle', (14, 13, 12, 12), 1),
      'dp2xpp2': ('oracle', (26, 25), 1),
      'dp4xpp1': ('trivial', (51,), 0)},
     'a36b3592d76ba6dd76d3dbc218e29e1291ded6df3de9d3cb85440763667c19b0'),
    't3-gpt2-345m-g4-b512':
    ((4, 1, (51,), '0x1.13c3e3afd91e6p+4'),
     {'dp1xpp4': ('oracle', (14, 13, 13, 11), 1),
      'dp2xpp2': ('oracle', (26, 25), 1),
      'dp4xpp1': ('trivial', (51,), 0)},
     '2088a48746447f758c43549c9fe6249f3958d32f3bdc642717245393056e19a7'),
    't4-gpt2-1.3b-g4-b1024':
    ((1, 4, (13, 13, 12, 13), '0x1.0e443c5297d68p+7'),
     {'dp1xpp4': ('oracle', (14, 12, 12, 13), 1),
      'dp2xpp2': ('', None, 0),
      'dp4xpp1': ('trivial', (51,), 0)},
     'e54429818f7986e16ad1385b00b56197109a90cfc86c391aeaa67d9b4f9cb199'),
    't4-gpt2-1.3b-g4-b2048':
    ((1, 4, (13, 13, 12, 13), '0x1.089dd3186ae53p+8'),
     {'dp1xpp4': ('oracle', (14, 12, 12, 13), 1),
      'dp2xpp2': ('', None, 0),
      'dp4xpp1': ('trivial', (51,), 0)},
     'ab6aba0101369efbb6d42d7af050a634add7002c23e4dfb9fa9ee633c6b934a1'),
    't4-gpt2-1.3b-g4-b512':
    ((1, 4, (13, 13, 12, 13), '0x1.19910ec6f1b51p+6'),
     {'dp1xpp4': ('oracle', (14, 12, 12, 13), 1),
      'dp2xpp2': ('', None, 0),
      'dp4xpp1': ('trivial', (51,), 0)},
     '3b9708d0ff58def4d98108a1be52069ce02e9778823929dc41955fd36ac19934'),
    't4-gpt2-1.3b-g8-b1024':
    ((2, 4, (13, 13, 12, 13), '0x1.19910ec6f1b51p+6'),
     {'dp1xpp8': ('planner', (7, 6, 6, 6, 6, 7, 6, 7), 2),
      'dp2xpp4': ('oracle', (14, 12, 12, 13), 1),
      'dp4xpp2': ('', None, 0),
      'dp8xpp1': ('trivial', (51,), 0)},
     'd00e59c060085cbe46442e53adb3870db4558776a98983d71750c4fa7b8b1176'),
    't4-gpt2-1.3b-g8-b2048':
    ((2, 4, (13, 13, 12, 13), '0x1.0e443c5297d68p+7'),
     {'dp1xpp8': ('planner', (7, 6, 6, 6, 6, 7, 6, 7), 2),
      'dp2xpp4': ('oracle', (14, 12, 12, 13), 1),
      'dp4xpp2': ('', None, 0),
      'dp8xpp1': ('trivial', (51,), 0)},
     'ad17b7d2f2a6b5f4b5d19f0eefe29ba5ccf20409ca78c35d1b3f2db9f953f241'),
    't4-gpt2-1.3b-g8-b512':
    ((2, 4, (13, 13, 12, 13), '0x1.302ab3afa574fp+5'),
     {'dp1xpp8': ('planner', (7, 6, 6, 6, 6, 7, 6, 7), 2),
      'dp2xpp4': ('oracle', (14, 12, 12, 13), 1),
      'dp4xpp2': ('', None, 0),
      'dp8xpp1': ('trivial', (51,), 0)},
     'eb41ba51238ba99cdf1b289f92189a8271ef357e9c12a158cdc54d92f5549cb0'),
    't4-gpt2-345m-g4-b1024':
    ((2, 2, (29, 22), '0x1.3c7f7834374d9p+5'),
     {'dp1xpp4': ('oracle', (14, 13, 12, 12), 1),
      'dp2xpp2': ('planner', (29, 22), 1),
      'dp4xpp1': ('trivial', (51,), 0)},
     '20f7320ca4397b5177ef8806769deb877a7188cde83592f2be933fd6cab5ece8'),
    't4-gpt2-345m-g4-b2048':
    ((2, 2, (29, 22), '0x1.369e4fa9202edp+6'),
     {'dp1xpp4': ('oracle', (14, 13, 12, 12), 1),
      'dp2xpp2': ('planner', (29, 22), 1),
      'dp4xpp1': ('trivial', (51,), 0)},
     '3da36c0a68554406bd70b2d75f244e4ddfc338b8ba6c26fe974d29c813e672e8'),
    't4-gpt2-345m-g4-b512':
    ((2, 2, (29, 22), '0x1.4841c94a658b4p+4'),
     {'dp1xpp4': ('oracle', (14, 13, 13, 11), 1),
      'dp2xpp2': ('planner', (29, 22), 1),
      'dp4xpp1': ('trivial', (51,), 0)},
     '9ec884887ee572aca333561d96571c8115ebc2f78dbe973ea3b839376e3f24ee'),
    't4-gpt2-345m-g8-b1024':
    ((4, 2, (29, 22), '0x1.4841c94a658b4p+4'),
     {'dp1xpp8': ('planner', (7, 6, 6, 6, 7, 7, 6, 6), 2),
      'dp2xpp4': ('oracle', (14, 13, 13, 11), 1),
      'dp4xpp2': ('planner', (29, 22), 1),
      'dp8xpp1': ('trivial', (51,), 0)},
     '2678cdb203222e27dcc6698c3f888b8cc09f37ebd878562181f4d275e19d1e7e'),
    't4-gpt2-345m-g8-b2048':
    ((4, 2, (29, 22), '0x1.3c7f7834374d9p+5'),
     {'dp1xpp8': ('planner', (7, 6, 6, 6, 7, 7, 6, 6), 2),
      'dp2xpp4': ('oracle', (14, 13, 12, 12), 1),
      'dp4xpp2': ('planner', (29, 22), 1),
      'dp8xpp1': ('trivial', (51,), 0)},
     '901443bd70ec2224701d43c5a6297f00bfbcf83a9e4b721cb6e7dc67b80465db'),
    't4-gpt2-345m-g8-b512':
    ((4, 2, (29, 22), '0x1.5fc66b76c2066p+3'),
     {'dp1xpp8': ('planner', (7, 6, 6, 6, 7, 7, 6, 6), 2),
      'dp2xpp4': ('oracle', (14, 13, 12, 12), 1),
      'dp4xpp2': ('planner', (29, 22), 1),
      'dp8xpp1': ('trivial', (51,), 0)},
     '3d661ab8f5de340c7760314403e8e45a3d35191a0e7d499b49912c7e56d8ca60'),
}


def test_corpus_is_pinned():
    assert sorted(GOLDEN) == sorted(CELLS)


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_cluster_work(cell):
    autopipe, layouts, digest = cluster_work(*CELLS[cell])
    want_autopipe, want_layouts, want_digest = GOLDEN[cell]
    assert autopipe == want_autopipe
    assert layouts == want_layouts
    assert digest == want_digest
