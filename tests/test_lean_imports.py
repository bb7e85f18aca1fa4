"""The runtime never imports scipy.

scipy was once a runtime dependency, and importing ``scipy.stats`` alone
cost about a second of every CLI start-up.  This guard loads what the
fig4, fig5, fi and aspen commands load, evaluates each function that
replaced a scipy call, and checks that no scipy module came along.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import sys

import numpy as np

import repro.cachesim.estimate
import repro.experiments.aspen_batch
import repro.experiments.fi_comparison
import repro.experiments.fig4_verification
import repro.experiments.fig5_profiling
import repro.experiments.runner
from repro.cachesim.configs import PAPER_CACHES
from repro.faultinject.compare import spearman_rho
from repro.kernels.conjugate_gradient import _apply_ic
from repro.patterns import RandomAccess, set_occupancy_pmf
from repro.patterns.random_access import finite_population_total

geometry = PAPER_CACHES["small"]
finite_population_total([3.0, 5.0, 8.0, 13.0], 16)
set_occupancy_pmf(500, geometry, placement="bernoulli")
RandomAccess(5000, 32, 100, 4, exact_expectation=False).expected_missing_elements(
    geometry
)
spearman_rho([1.0, 2.0, 3.0], [2.0, 1.0, 3.0])
_apply_ic(np.eye(3), np.ones(3))
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_runtime_imports_no_scipy():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run(
        [sys.executable, "-c", PROBE],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    assert out.stdout.strip() == "[]", out.stdout
