"""Auto routing of ``engine="auto"`` in :class:`~repro.cachesim.CacheSimulator`.

With every knob left at its default, a trace too small to amortise the
array engine's setup must stay on the reference engine, replayed in one
in-process engine.
"""

import numpy as np

from repro.cachesim import CacheGeometry, CacheSimulator

from test_engine_differential import random_trace

GEOMETRY = CacheGeometry(4, 64, 32)


class TestSimulatorRouting:
    """``CacheSimulator`` resolution of the deferred ``"auto"`` engine."""

    def test_engine_auto_small_trace_stays_reference(self):
        sim = CacheSimulator(GEOMETRY)  # everything "auto"
        sim.run(random_trace(np.random.default_rng(13), n=50))
        assert sim.engine == "reference"
        assert sim.cache is not None
        assert sim.shards == 1
