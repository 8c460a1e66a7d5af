"""Event-driven engine vs the polling-sweep reference driver.

The engine schedules devices with a ready queue and explicit wake
conditions; the original driver repeatedly swept every device until no
progress was possible.  Op timing is driver-order independent (rendezvous
posts are keyed by (pair, tag set), eager deposits by unique tags, and a
device's program is strictly in-order), so the two drivers must produce
identical results: same iteration time, same per-device peak memory, and
the same multiset of timeline events.  These tests pin that equivalence
across every schedule family and several pipeline depths.
"""

from collections import Counter

import pytest

from repro.config import HardwareConfig
from repro.core.balance_dp import balanced_partition
from repro.core.partition import stage_times
from repro.core.slicer import make_slice_plan
from repro.hardware.cluster import Cluster
from repro.schedules.base import CommOp, ComputeOp, Schedule, Transfer
from repro.schedules.gpipe import build_gpipe
from repro.schedules.interleaved import build_interleaved
from repro.schedules.one_f_one_b import build_1f1b
from repro.schedules.sliced import build_sliced
from repro.sim.engine import DeadlockError, Engine, execute


class SweepEngine(Engine):
    """The seed's polling driver on top of the same single-op `_advance`.

    Sweeps every device each round and stops when a full round makes no
    progress — the quadratic loop the ready queue replaced.  Kept here as
    the reference semantics for the equivalence tests.
    """

    def run(self):
        n = self.schedule.num_devices
        progress = True
        while progress:
            progress = False
            for dev in range(n):
                while self._advance(dev):
                    progress = True
        return self._finish()


def _schedules(profile, depth, m):
    partition = balanced_partition(profile.block_times(), depth)
    times = stage_times(partition, profile)
    built = {
        "gpipe": build_gpipe(profile, partition, m),
        "1f1b": build_1f1b(profile, partition, m),
        "sliced": build_sliced(
            profile, partition, make_slice_plan(times, m)
        ),
    }
    if m % depth == 0:
        try:
            built["interleaved"] = build_interleaved(profile, depth, m)
        except ValueError:
            pass
    return built


@pytest.mark.parametrize("depth,m", [(2, 4), (3, 6), (4, 8), (4, 12)])
def test_event_driven_matches_sweep_reference(tiny_profile, depth, m):
    cluster = Cluster(tiny_profile.hardware)
    for name, sched in _schedules(tiny_profile, depth, m).items():
        fast = Engine(sched, cluster).run()
        slow = SweepEngine(sched, cluster).run()
        assert fast.iteration_time == slow.iteration_time, name
        assert fast.peak_memory == slow.peak_memory, name
        assert fast.oom_devices == slow.oom_devices, name
        assert Counter(fast.raw_events) == Counter(slow.raw_events), name


def test_per_device_event_order_preserved(tiny_profile):
    """Within one device the timeline must stay in time order."""
    cluster = Cluster(tiny_profile.hardware)
    for sched in _schedules(tiny_profile, 3, 6).values():
        result = Engine(sched, cluster).run()
        for dev in range(result.num_devices):
            starts = [e.start for e in result.events if e.device == dev]
            assert starts == sorted(starts)


def test_each_engine_lowers_the_schedule_as_it_is(tiny_profile):
    """Nothing is cached on the schedule: two engines over one schedule
    lower it afresh to equal programs, and an engine built after an edit
    runs the edited programs."""
    cluster = Cluster(tiny_profile.hardware)
    sched = _schedules(tiny_profile, 3, 6)["1f1b"]
    e1 = Engine(sched, cluster)
    e2 = Engine(sched, cluster)
    assert e1._programs is not e2._programs
    assert e1._programs == e2._programs
    nominal = e1.run().iteration_time
    assert e2.run().iteration_time == nominal
    sched.programs[0].append(ComputeOp("F", (99, -1), 0.1))
    assert Engine(sched, cluster).run().iteration_time > nominal


def test_compiled_programs_recompiled_for_new_cluster(tiny_profile):
    """A different cluster object means different link times: no reuse."""
    sched = _schedules(tiny_profile, 3, 6)["1f1b"]
    c1 = Cluster(tiny_profile.hardware)
    c2 = Cluster(tiny_profile.hardware)
    e1 = Engine(sched, c1)
    e2 = Engine(sched, c2)
    assert e1._programs is not e2._programs
    assert e1.run().iteration_time == e2.run().iteration_time


class TestDeadlockDiagnosis:
    def test_rendezvous_deadlock_names_wait_state(self):
        """Cross-ordered rendezvous ops park both devices; the error says
        exactly what each device is parked on."""
        sched = Schedule("t", [
            [CommOp(0, 1, (Transfer("a", 0, 1, 1.0),)),
             CommOp(0, 1, (Transfer("b", 1, 0, 1.0),))],
            [CommOp(1, 0, (Transfer("b", 1, 0, 1.0),)),
             CommOp(1, 0, (Transfer("a", 0, 1, 1.0),))],
        ])
        with pytest.raises(DeadlockError) as err:
            execute(sched, Cluster(HardwareConfig()))
        msg = str(err.value)
        assert "blocked at op" in msg
        assert "parked on rendezvous ['a']" in msg
        assert "parked on rendezvous ['b']" in msg

    def test_eager_deadlock_names_missing_deposit(self):
        """Circularly-ordered eager receives park each device on the tag
        its peer never gets to deposit; the diagnosis names both tags."""
        sched = Schedule("t", [
            [CommOp(0, 1, (Transfer("y", 1, 0, 1.0),), rendezvous=False),
             CommOp(0, 1, (Transfer("x", 0, 1, 1.0),), rendezvous=False)],
            [CommOp(1, 0, (Transfer("x", 0, 1, 1.0),), rendezvous=False),
             CommOp(1, 0, (Transfer("y", 1, 0, 1.0),), rendezvous=False)],
        ])
        with pytest.raises(DeadlockError) as err:
            execute(sched, Cluster(HardwareConfig()))
        msg = str(err.value)
        assert "parked on missing deposit 'y'" in msg
        assert "parked on missing deposit 'x'" in msg
