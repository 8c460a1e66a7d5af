"""Golden work test: how much work the exact oracle does, per query.

The oracle's other tests hold its answers to brute force, which says
nothing about the work the lattice does to reach them: a change that
admits more cells, expands more prefixes or scores more columns would
still pass them.  This corpus pins, per query, the answer (sizes and the
``float.hex`` of the time or robust value), the ``evaluations``,
``dominance_pruned`` and ``incumbent_updates`` counters, every
``oracle.level`` span's ``(level, admitted, prefixes)``, the
``oracle.climb`` ``(rounds, cols)`` and ``oracle.probe`` ``(cols,
survivors)`` spans, and the ``cols`` and ``kept`` summed over the
``oracle.kernel_sweep`` spans.

The corpus: the tiny profile at depths 3-5 in both comm modes, at
``m < p`` and ``m > p``; gpt2-345m at depth 5, ``m = 2`` (more leaf
columns than the probe scores, so the leaf bounds and the filter run)
and at depth 8, ``m = 16`` in both comm modes (``C(50, 7)``
candidates, so the seed climb runs); the zero-cost-block
profile that fires the dominance memo; and the mean, p95 and max robust
objectives on a space small enough for the one-sweep shortcut (tiny,
depth 3) and on one that is not (gpt2-345m, depth 4).
"""

import pytest

from repro import obs
from repro.core.exhaustive import exhaustive_partition
from repro.robustness import RobustObjective, StageCostNoise, Straggler

from tests.core.test_search_properties import make_profile

#: the profile of ``test_dominance_memo_fires_and_stays_exact``.
_ZERO_FWD = [1.0, 0.0, 0.0, 1.0, 0.0, 1.0, 0.0, 0.0]
_ZERO_BWD = [2.0, 0.0, 0.0, 2.0, 0.0, 2.0, 0.0, 0.0]

#: query id -> (profile, depth, m, comm mode, robust statistic or None).
QUERIES = {
    **{
        f"tiny-d{p}-m{m}-{mode}": ("tiny", p, m, mode, None)
        for p in (3, 4, 5) for m in (2, 8) for mode in ("paper", "edges")
    },
    "gpt2-d5-m2-paper": ("gpt2", 5, 2, "paper", None),
    "gpt2-d8-m16-paper": ("gpt2", 8, 16, "paper", None),
    "gpt2-d8-m16-edges": ("gpt2", 8, 16, "edges", None),
    "zero-d4-m4-paper": ("zero", 4, 4, "paper", None),
    **{
        f"robust-{stat}-{name}-d{p}": (name, p, 6, "paper", stat)
        for stat in ("mean", "p95", "max")
        for name, p in (("tiny", 3), ("gpt2", 4))
    },
}


def oracle_work(profile, depth, m, comm_mode, statistic):
    """The answer and the work of one traced oracle search."""
    robust = None
    if statistic is not None:
        robust = RobustObjective(
            (StageCostNoise(0.2), Straggler(2.0, probability=0.5)),
            draws=8, seed=3, statistic=statistic,
        )
    tel = obs.Telemetry()
    with obs.session(tel):
        res = exhaustive_partition(
            profile, depth, m, comm_mode=comm_mode, max_evaluations=None,
            robust=robust,
        )
    spans = [(name, attrs) for name, _, _, _, attrs in tel.events]
    sweeps = [a for name, a in spans if name == "oracle.kernel_sweep"]
    value = res.iteration_time if robust is None else res.robust_value
    return {
        "sizes": tuple(res.partition.sizes),
        "value": float.hex(value),
        "evaluations": res.evaluations,
        "dominance_pruned": res.dominance_pruned,
        "incumbent_updates": res.incumbent_updates,
        "levels": [
            (a["level"], a["admitted"], a["prefixes"])
            for name, a in spans if name == "oracle.level"
        ],
        "climb": [
            (a["rounds"], a["cols"])
            for name, a in spans if name == "oracle.climb"
        ],
        "probe": [
            (a["cols"], a["survivors"])
            for name, a in spans if name == "oracle.probe"
        ],
        "sweep": (
            sum(a["cols"] for a in sweeps), sum(a["kept"] for a in sweeps),
        ),
    }


#: generated by :func:`oracle_work` over :data:`QUERIES`.
GOLDEN = {
    'gpt2-d5-m2-paper': {
        'sizes': (11, 11, 11, 11, 7),
        'value': '0x1.456997ba42c73p-1',
        'evaluations': 4096,
        'dominance_pruned': 0,
        'incumbent_updates': 2,
        'levels': [
            (0, 15, 15), (1, 210, 210), (2, 2940, 2940), (3, 4540, 4540),
        ],
        'climb': [],
        'probe': [(4096, 0)],
        'sweep': (4096, 4095),
    },
    'gpt2-d8-m16-edges': {
        'sizes': (8, 7, 6, 6, 6, 6, 6, 6),
        'value': '0x1.a264a32558224p+0',
        'evaluations': 453,
        'dominance_pruned': 0,
        'incumbent_updates': 6,
        'levels': [
            (0, 8, 8), (1, 56, 56), (2, 310, 310), (3, 665, 665),
            (4, 252, 252), (5, 376, 376), (6, 272, 272),
        ],
        'climb': [(6, 265)],
        'probe': [(272, 0)],
        'sweep': (272, 187),
    },
    'gpt2-d8-m16-paper': {
        'sizes': (8, 7, 6, 6, 7, 6, 6, 5),
        'value': '0x1.a65fcf60d1bd8p+0',
        'evaluations': 326,
        'dominance_pruned': 0,
        'incumbent_updates': 6,
        'levels': [
            (0, 8, 8), (1, 56, 56), (2, 338, 338), (3, 665, 665),
            (4, 382, 382), (5, 240, 240), (6, 110, 110),
        ],
        'climb': [(6, 264)],
        'probe': [(110, 0)],
        'sweep': (110, 61),
    },
    'robust-max-gpt2-d4': {
        'sizes': (17, 8, 16, 10),
        'value': '0x1.a04b37a63e2cap+0',
        'evaluations': 513,
        'dominance_pruned': 0,
        'incumbent_updates': 2,
        'levels': [(0, 25, 25), (1, 351, 351), (2, 2568, 2568)],
        'climb': [],
        'probe': [(512, 0)],
        'sweep': (512, 512),
    },
    'robust-max-tiny-d3': {
        'sizes': (7, 4, 4),
        'value': '0x1.fc18a3cf44deap-8',
        'evaluations': 91,
        'dominance_pruned': 0,
        'incumbent_updates': 1,
        'levels': [],
        'climb': [],
        'probe': [],
        'sweep': (0, 0),
    },
    'robust-mean-gpt2-d4': {
        'sizes': (17, 10, 14, 10),
        'value': '0x1.62a2dbe857342p+0',
        'evaluations': 719,
        'dominance_pruned': 0,
        'incumbent_updates': 2,
        'levels': [(0, 24, 24), (1, 400, 400), (2, 2533, 2533)],
        'climb': [],
        'probe': [(512, 207)],
        'sweep': (719, 718),
    },
    'robust-mean-tiny-d3': {
        'sizes': (8, 4, 3),
        'value': '0x1.b0212e337d0f9p-8',
        'evaluations': 91,
        'dominance_pruned': 0,
        'incumbent_updates': 1,
        'levels': [],
        'climb': [],
        'probe': [],
        'sweep': (0, 0),
    },
    'robust-p95-gpt2-d4': {
        'sizes': (17, 8, 16, 10),
        'value': '0x1.9d9c1f2bbd7bap+0',
        'evaluations': 513,
        'dominance_pruned': 0,
        'incumbent_updates': 2,
        'levels': [(0, 26, 26), (1, 400, 400), (2, 3538, 3538)],
        'climb': [],
        'probe': [(512, 0)],
        'sweep': (512, 512),
    },
    'robust-p95-tiny-d3': {
        'sizes': (7, 4, 4),
        'value': '0x1.f8edd1665c2c4p-8',
        'evaluations': 91,
        'dominance_pruned': 0,
        'incumbent_updates': 1,
        'levels': [],
        'climb': [],
        'probe': [],
        'sweep': (0, 0),
    },
    'tiny-d3-m2-edges': {
        'sizes': (6, 6, 3),
        'value': '0x1.35f176587cbcbp-9',
        'evaluations': 3,
        'dominance_pruned': 0,
        'incumbent_updates': 2,
        'levels': [(0, 6, 6), (1, 3, 3)],
        'climb': [],
        'probe': [(3, 0)],
        'sweep': (3, 2),
    },
    'tiny-d3-m2-paper': {
        'sizes': (6, 6, 3),
        'value': '0x1.3c3acd0482ba9p-9',
        'evaluations': 3,
        'dominance_pruned': 0,
        'incumbent_updates': 2,
        'levels': [(0, 6, 6), (1, 3, 3)],
        'climb': [],
        'probe': [(3, 0)],
        'sweep': (3, 2),
    },
    'tiny-d3-m8-edges': {
        'sizes': (6, 5, 4),
        'value': '0x1.9cfb6b2202990p-8',
        'evaluations': 1,
        'dominance_pruned': 0,
        'incumbent_updates': 1,
        'levels': [(0, 4, 4), (1, 1, 1)],
        'climb': [],
        'probe': [(1, 0)],
        'sweep': (1, 0),
    },
    'tiny-d3-m8-paper': {
        'sizes': (6, 5, 4),
        'value': '0x1.a97ac4a860ba6p-8',
        'evaluations': 1,
        'dominance_pruned': 0,
        'incumbent_updates': 1,
        'levels': [(0, 4, 4), (1, 1, 1)],
        'climb': [],
        'probe': [(1, 0)],
        'sweep': (1, 0),
    },
    'tiny-d4-m2-edges': {
        'sizes': (5, 4, 4, 2),
        'value': '0x1.316821e983186p-9',
        'evaluations': 12,
        'dominance_pruned': 0,
        'incumbent_updates': 2,
        'levels': [(0, 5, 5), (1, 23, 23), (2, 12, 12)],
        'climb': [],
        'probe': [(12, 0)],
        'sweep': (12, 11),
    },
    'tiny-d4-m2-paper': {
        'sizes': (5, 4, 4, 2),
        'value': '0x1.37b1789589164p-9',
        'evaluations': 12,
        'dominance_pruned': 0,
        'incumbent_updates': 2,
        'levels': [(0, 5, 5), (1, 23, 23), (2, 12, 12)],
        'climb': [],
        'probe': [(12, 0)],
        'sweep': (12, 11),
    },
    'tiny-d4-m8-edges': {
        'sizes': (5, 3, 4, 3),
        'value': '0x1.653d607e95376p-8',
        'evaluations': 5,
        'dominance_pruned': 0,
        'incumbent_updates': 2,
        'levels': [(0, 5, 5), (1, 10, 10), (2, 5, 5)],
        'climb': [],
        'probe': [(5, 0)],
        'sweep': (5, 4),
    },
    'tiny-d4-m8-paper': {
        'sizes': (5, 4, 3, 3),
        'value': '0x1.6eab62809e343p-8',
        'evaluations': 4,
        'dominance_pruned': 0,
        'incumbent_updates': 2,
        'levels': [(0, 5, 5), (1, 10, 10), (2, 4, 4)],
        'climb': [],
        'probe': [(4, 0)],
        'sweep': (4, 3),
    },
    'tiny-d5-m2-edges': {
        'sizes': (4, 3, 3, 4, 1),
        'value': '0x1.32a244ed9b7a0p-9',
        'evaluations': 2,
        'dominance_pruned': 0,
        'incumbent_updates': 2,
        'levels': [(0, 4, 4), (1, 12, 12), (2, 36, 36), (3, 2, 2)],
        'climb': [],
        'probe': [(2, 0)],
        'sweep': (2, 1),
    },
    'tiny-d5-m2-paper': {
        'sizes': (4, 3, 3, 4, 1),
        'value': '0x1.38eb9b99a177ep-9',
        'evaluations': 2,
        'dominance_pruned': 0,
        'incumbent_updates': 2,
        'levels': [(0, 4, 4), (1, 12, 12), (2, 36, 36), (3, 2, 2)],
        'climb': [],
        'probe': [(2, 0)],
        'sweep': (2, 1),
    },
    'tiny-d5-m8-edges': {
        'sizes': (4, 3, 3, 2, 3),
        'value': '0x1.44f4338018f21p-8',
        'evaluations': 18,
        'dominance_pruned': 0,
        'incumbent_updates': 2,
        'levels': [(0, 4, 4), (1, 15, 15), (2, 19, 19), (3, 18, 18)],
        'climb': [],
        'probe': [(18, 0)],
        'sweep': (18, 17),
    },
    'tiny-d5-m8-paper': {
        'sizes': (4, 3, 3, 3, 2),
        'value': '0x1.4e8f8b1786facp-8',
        'evaluations': 1,
        'dominance_pruned': 0,
        'incumbent_updates': 1,
        'levels': [(0, 4, 4), (1, 12, 12), (2, 18, 18), (3, 1, 1)],
        'climb': [],
        'probe': [(1, 0)],
        'sweep': (1, 0),
    },
    'zero-d4-m4-paper': {
        'sizes': (1, 3, 1, 3),
        'value': '0x1.2e66666666666p+4',
        'evaluations': 9,
        'dominance_pruned': 14,
        'incumbent_updates': 2,
        'levels': [(0, 3, 3), (1, 9, 4), (2, 9, 9)],
        'climb': [],
        'probe': [(9, 0)],
        'sweep': (9, 8),
    },
}


@pytest.fixture(scope="module")
def profiles(tiny_profile, gpt2_profile):
    return {
        "tiny": tiny_profile,
        "gpt2": gpt2_profile,
        "zero": make_profile(_ZERO_FWD, _ZERO_BWD, 0.1),
    }


@pytest.mark.parametrize("query", sorted(QUERIES))
def test_oracle_work_is_pinned(query, profiles):
    name, depth, m, comm_mode, statistic = QUERIES[query]
    work = oracle_work(profiles[name], depth, m, comm_mode, statistic)
    assert work == GOLDEN[query]
