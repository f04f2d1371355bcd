"""networkx stays off the package's runtime paths.

The package's graph decisions (host and region routes, meta-object
ordering, rule cycle checks, composition-path planning) live in
:mod:`repro.graphs`.  networkx is still a dependency, of
``Assembly.architecture_graph()`` alone, but importing the simulator
and the packages the Figure-1 request path loads, routing, partitioning
and running a sharded simulation, ordering meta-object chains, checking
a rule set and planning a composition path must not load it: it would
more than double the import footprint of every process, sharded
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
import repro.aspects
import repro.connectors
import repro.core
import repro.durability
import repro.filters
import repro.middleware
import repro.parallel
import repro.reconfig
from repro.errors import ChainOrderError, RuleCycleError
from repro.events import Simulator
from repro.metaobjects import MetaChain, MetaObject
from repro.netsim import datacenter, hosts
from repro.parallel import ParallelSimulation
from repro.parallel.scenario import build_star_region, star_ring_partition
from repro.paths import PathFamily, PathPlanner, ServiceOption
from repro.rules import check_acyclic, parse_rules

net = datacenter(Simulator())
names = hosts(net)
hops = sum(len(net.route(a, b)) - 1 for a in names for b in names)
star_ring_partition(4).validate()
build = partial(build_star_region, leaves=4, messages=200, until=1.0)
result = ParallelSimulation(star_ring_partition(4, leaves=4), build,
                            telemetry={"sample_rate": 0.1}).run(
    1.0, backend="inline")
assert result.rounds > 0 and result.checksum is not None

def wrapper(name, **kwargs):
    return MetaObject(name, lambda inv, proceed: proceed(inv), **kwargs)

chain = MetaChain("c", [wrapper("log", modificatory=True),
                        wrapper("auth", must_precede={"log"},
                                modificatory=True)])
try:
    MetaChain("cyclic", [wrapper("a", must_precede={"b"}),
                         wrapper("b", must_precede={"a"})])
except ChainOrderError as error:
    chain_cycle = str(error)
try:
    check_acyclic(parse_rules("when a.x implies b.y\\nwhen b.y implies a.x"))
except RuleCycleError as error:
    rule_cycle = str(error)
family = PathFamily("video", ["encode", "send"])
family.add_option(ServiceOption("h264", "encode", str, latency=2.0))
family.add_option(ServiceOption("h263", "encode", str, latency=1.0))
family.add_option(ServiceOption("stream", "send", str))
path = PathPlanner(family).plan()
print(chain.order_names, chain_cycle, rule_cycle, path.names)
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
    decisions, footprint = proc.stdout.splitlines()
    assert decisions == (
        "['auth', 'log'] "
        "ordering constraints form a cycle: a -> b -> a "
        "rule set would create a cycle in the calling tree: "
        "a.x -> b.y -> a.x "
        "['h263', 'stream']"), decisions
    # 8 hosts on 2 racks: 24 same-rack pairs of 2 hops, 32 of 4.
    assert footprint.split() == ["176", "[]"], proc.stdout
