"""No objective or loss pack outlives the daemon reaction that built it.

Each reaction builds fresh objectives, and each objective builds its
loss pack (and the pack its buffer plans) on first evaluation.  A
recording optimizer keeps weak references to both; after every daemon
step they must all be dead by reference counting alone — the cyclic
collector is switched off for the run, so a reference cycle or a
lingering strong reference fails the test.
"""

import gc
import weakref

from repro import SurfOS
from repro.hwmgr import ClientDevice
from repro.mobility import WaypointWalker
from repro.orchestrator import RandomSearch


class RecordingSearch(RandomSearch):
    """RandomSearch that weakly records every objective and its pack."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.refs = []

    def optimize(self, objective, initial_phases, projection=None, budget=None):
        result = super().optimize(objective, initial_phases, projection, budget)
        self.refs.append(weakref.ref(objective))
        assert objective._pack is not None
        self.refs.append(weakref.ref(objective._pack))
        return result


def test_objectives_and_packs_die_with_their_reaction():
    search = RecordingSearch(max_iterations=4, seed=0)
    system = SurfOS.from_scene("apartment", panel_size=4, optimizer=search)
    scene = system.scene
    loop = scene.client_loops[0]
    client = system.add_client(ClientDevice("c0", tuple(map(float, loop[0]))))
    system.dynamics.attach_client(client, WaypointWalker(loop, speed_mps=1.0))
    system.orchestrator.optimize_coverage(scene.observe_room)
    system.orchestrator.enhance_link("c0", snr=20.0)
    gc.collect()
    gc.disable()
    try:
        for _ in range(4):
            search.refs.clear()
            record = system.daemon.step(dt=0.5)
            # The client moves every cycle, so every cycle reacts.
            assert record is not None
            assert search.refs
            assert [ref() for ref in search.refs] == [None] * len(search.refs)
    finally:
        gc.enable()
        system.pipeline.close()
