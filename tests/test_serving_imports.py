"""What a serving process pays for at import time.

A fresh interpreter imports ``repro`` and the serving stack (service,
fleet, gateway, durability), builds gateway → supervisor → fleet on the
default pipeline and ticks it once with one beacon's scans. The harness
(the simulator, the world model, the baselines, DTW, the simulated client
and the soak and chaos drivers) stands in for phones, radios and offline
experiments, so serving must not load it; nor may it load ``scipy``, which
nothing on the serving path uses and which costs a large share of
start-up time.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = """
import json, math, sys, tempfile
import repro, repro.service, repro.fleet, repro.gateway, repro.durability
from repro.durability import CheckpointStore, FleetSupervisor
from repro.fleet import FleetConfig, TrackingFleet
from repro.gateway import GatewayConfig, IngestionGateway
from repro.types import ImuSample, RssiSample

with tempfile.TemporaryDirectory() as root:
    supervisor = FleetSupervisor(TrackingFleet(FleetConfig(n_shards=1)),
                                 CheckpointStore(root))
    gateway = IngestionGateway(GatewayConfig(client_timeout_s=None),
                               supervisor)
    gateway.enqueue_scans([RssiSample(0.1 * i, -60.0 - i % 5, "b")
                           for i in range(40)])
    gateway.enqueue_imu([ImuSample(0.02 * i, math.sin(i / 5.0), 0.0, 0.0)
                         for i in range(200)])
    snapshots = gateway.tick(4.0)
print(json.dumps({"fixed": snapshots["b"].estimate is not None,
                  "modules": sorted(sys.modules)}))
"""

#: Packages only the harness and the offline experiments use.
HARNESS_PACKAGES = ("repro.sim", "repro.world", "repro.baselines",
                    "repro.dtw", "repro.analysis", "repro.ble", "repro.imu")
#: Harness modules that live beside the serving code they drive.
HARNESS_MODULES = ("repro.gateway.client", "repro.gateway.soak",
                   "repro.durability.chaos")
#: 109 before package exports loaded on first use.
MAX_REPRO_MODULES = 60


@pytest.fixture(scope="module")
def probe():
    """Run the probe once in a fresh interpreter; both tests read it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep)
                      if p])
    out = subprocess.run([sys.executable, "-c", PROBE], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr[-800:]
    return json.loads(out.stdout)


def test_serving_stack_imports_without_scipy(probe):
    assert [m for m in probe["modules"] if m.split(".")[0] == "scipy"] == []


def test_serving_loads_only_what_it_serves(probe):
    assert probe["fixed"]
    repro_modules = [m for m in probe["modules"] if m.split(".")[0] == "repro"]
    assert [m for m in repro_modules
            if ".".join(m.split(".")[:2]) in HARNESS_PACKAGES] == []
    assert [m for m in repro_modules if m in HARNESS_MODULES] == []
    assert len(repro_modules) <= MAX_REPRO_MODULES, repro_modules
