"""Network and host simulator (substrate S2).

Simulates the distributed infrastructure the paper's systems run on:
nodes with capacity and fluctuating load, links with latency/bandwidth/
loss, shortest-latency routing, failures and repairs.  This substitutes
for the real telecom networks and equipment the paper targets — the upper
layers observe the same signals (delay, loss, load, unreachability) a
real deployment would produce.
"""

from repro.netsim.failure import FailureEvent, FailureInjector
from repro.netsim.link import Link
from repro.netsim.message import (
    Message,
    MessageIdAllocator,
    current_allocator,
    reset_message_ids,
    use_allocator,
)
from repro.netsim.network import Network, NetworkStats
from repro.netsim.node import EndpointHandler, Node, least_loaded
from repro.netsim.partition import (
    Boundary,
    Partition,
    RegionNetwork,
)
from repro.netsim.topology import datacenter, full_mesh, hosts, line, ring, star

__all__ = [
    "Boundary",
    "EndpointHandler",
    "FailureEvent",
    "FailureInjector",
    "Link",
    "Message",
    "MessageIdAllocator",
    "Network",
    "NetworkStats",
    "Node",
    "Partition",
    "RegionNetwork",
    "current_allocator",
    "datacenter",
    "full_mesh",
    "hosts",
    "least_loaded",
    "line",
    "reset_message_ids",
    "ring",
    "star",
    "use_allocator",
]
