"""networkx stays off the simulator's import path.

The simulator routes hosts and regions with
:mod:`repro.netsim.routing`.  networkx is still a dependency, of
``Assembly.architecture_graph()``, meta-object ordering, rule cycle
checks and path planning, but importing the simulator and routing,
partitioning and running a sharded simulation must not load it: it
would more than double the import footprint of every process, sharded
workers included.  Checked in a fresh interpreter, because this test
process has networkx loaded already.
"""

import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]

SCRIPT = """
import sys
from functools import partial

import repro
import repro.durability
import repro.parallel
import repro.reconfig
from repro.events import Simulator
from repro.netsim import datacenter, hosts
from repro.parallel import ParallelSimulation
from repro.parallel.scenario import build_star_region, star_ring_partition

net = datacenter(Simulator())
names = hosts(net)
hops = sum(len(net.route(a, b)) - 1 for a in names for b in names)
star_ring_partition(4).validate()
build = partial(build_star_region, leaves=4, messages=200, until=1.0)
result = ParallelSimulation(star_ring_partition(4, leaves=4), build,
                            telemetry={"sample_rate": 0.1}).run(
    1.0, backend="inline")
assert result.rounds > 0 and result.checksum is not None
print(hops, sorted(name for name in sys.modules
                   if name.partition(".")[0] == "networkx"))
"""


def test_simulator_runs_without_loading_networkx():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    proc = subprocess.run([sys.executable, "-c", SCRIPT], cwd=REPO_ROOT,
                          env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    # 8 hosts on 2 racks: 24 same-rack pairs of 2 hops, 32 of 4.
    assert proc.stdout.split() == ["176", "[]"], proc.stdout
