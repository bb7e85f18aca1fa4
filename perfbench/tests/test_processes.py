"""The host-speed probe, and stopping every process a run starts."""

import json
import subprocess
import sys
import time
from pathlib import Path

from hostspeed import MIN_SAMPLES, HostSpeedProbe

PERFBENCH = Path(__file__).resolve().parents[1]


def test_probe_reads_an_interval_and_stops():
    with HostSpeedProbe() as probe:
        time.sleep(0.3)
        reading = probe.loop_cpu_s(probe.started, time.monotonic())
        process = probe._process
    assert 0 < reading < 1
    assert len(probe.samples) >= MIN_SAMPLES
    assert process.returncode is not None


def test_short_interval_uses_the_nearest_samples():
    with HostSpeedProbe() as probe:
        time.sleep(0.3)
        now = time.monotonic()
        assert probe.loop_cpu_s(now, now) > 0


ORPHAN = """
import json, os, subprocess, sys
sys.path.insert(0, sys.argv[1])
import run
run.adopt_orphans()
run.STOP_GRACE_S = 0.5
stubborn = "import signal, time; signal.signal(signal.SIGTERM, signal.SIG_IGN); time.sleep(60)"
spawn = (
    "import subprocess, sys; "
    f"print(subprocess.Popen([sys.executable, '-c', {stubborn!r}], "
    "stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).pid)"
)
orphan = int(subprocess.run([sys.executable, "-c", spawn], capture_output=True, text=True).stdout)
adopted = orphan in run.child_pids()
run.stop_processes()
try:
    os.kill(orphan, 0)
    alive = True
except ProcessLookupError:
    alive = False
print(json.dumps({"adopted": adopted, "alive": alive, "children": run.child_pids()}))
"""


def test_stop_processes_stops_and_reaps_an_adopted_orphan():
    out = subprocess.run(
        [sys.executable, "-c", ORPHAN, str(PERFBENCH)],
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    assert json.loads(out.stdout) == {"adopted": True, "alive": False, "children": []}
