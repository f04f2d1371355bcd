"""``figure1_request``: the end-to-end request of the paper's Figure 1.

Four simulated clients each keep one request outstanding (a closed loop)
against a front component exported through the ORB of a two-rack
datacenter.  A request travels RemoteProxy → client ORB → host/rack/core
hops → server ORB → front component, whose required port goes through an
RpcConnector into the serving component.  The serving port carries a
FilterSet, a woven Aspect and a MetaChain.  The reply returns over the
network.  RAML runs the Figure-1 error-rate constraint (adapt, then
intercede) and sweeps every 0.25 sim-s, while a seeded fault schedule
degrades the active server every few sim-seconds.

Op: one request, host time from issue to its result or error callback.
A cycle is one fresh scenario simulated for :data:`CYCLE_SIM_S`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from time import perf_counter

from repro import Simulator, datacenter
from repro.aspects import Aspect, Weaver
from repro.connectors import RpcConnector
from repro.core import Raml, Response, custom
from repro.filters import FilterSet, PassFilter, TransformFilter, match
from repro.kernel import Assembly, Component, Interface, Operation
from repro.metaobjects import MetaChain, MetaObject
from repro.middleware import Orb, RemoteProxy, deadline_propagation

from harness import CheckFailed, Cycle, Spans, digest, quantile, span

CLIENT_HOSTS = ("rack0-host1", "rack0-host2", "rack1-host2", "rack1-host3")
FRONT_HOST = "rack0-host0"
SERVING = (("serving-a", "rack1-host0"), ("serving-b", "rack1-host1"))
CYCLE_SIM_S = 12.0
SWEEP = 0.25
FAULT_PERIOD = 3.0
REPAIR_AFTER = 1.5
#: Host work the front charges per request, in node cpu units.
FRONT_WORK = 0.2
#: Layers whose span durations the traced run keeps for percentiles.
TRACED_DURATIONS = ("core",)


def media_interface() -> Interface:
    return Interface("Media", "1.0", [Operation("render", ("frame",))])


class Serving(Component):
    """Renders frames; a fault wedges it until repaired."""

    def on_initialize(self) -> None:
        self.state.setdefault("rendered", 0)
        self.state.setdefault("degraded", False)

    def render(self, frame: str) -> str:
        if self.state["degraded"]:
            raise RuntimeError(f"{self.name}: renderer wedged")
        self.state["rendered"] += 1
        return f"{self.name}:{frame}"


class Front(Component):
    """The ORB-exported entry point; forwards through its required port."""

    def render(self, frame: str) -> str:
        return self.required_port("media").call("render", frame)


@dataclass(frozen=True)
class Plan:
    """The seeded inputs of one cycle (every cycle of a seed is the same)."""

    seed: int
    faults: tuple[float, ...]
    #: Per-client (think-time seed, frame prefix).
    clients: tuple[tuple[int, str], ...]


def prepare(seed: int) -> Plan:
    rng = random.Random(seed)
    faults = tuple(round(1.0 + k * FAULT_PERIOD + rng.uniform(0.0, 1.0), 6)
                   for k in range(int(CYCLE_SIM_S // FAULT_PERIOD)))
    clients = tuple((rng.randrange(1 << 30), f"c{index}x{rng.randrange(999)}")
                    for index in range(len(CLIENT_HOSTS)))
    return Plan(seed, faults, clients)


class Scenario:
    """One freshly built Figure-1 system plus its closed-loop clients."""

    def __init__(self, plan: Plan, spans: Spans | None) -> None:
        self.plan = plan
        self.spans = spans
        sim = self.sim = Simulator()
        net = self.net = datacenter(sim, racks=2, hosts_per_rack=4,
                                    seed=plan.seed)
        self.orbs = {host: Orb(net, host)
                     for host in (FRONT_HOST, *CLIENT_HOSTS)}
        assembly = self.assembly = Assembly(net, name="figure1")
        self.servers = []
        for name, host in SERVING:
            server = Serving(name)
            server.provide("svc", media_interface())
            assembly.deploy(server, host)
            self.servers.append(server)
        connector = self.connector = RpcConnector(
            "media", media_interface(), seed=plan.seed)
        connector.attach("server", self.servers[0].provided_port("svc"))
        assembly.add_connector(connector)
        front = self.front = Front("front")
        front.provide("svc", media_interface())
        front.require("media", media_interface())
        assembly.deploy(front, FRONT_HOST)
        assembly.connect("front", "media", target=connector.endpoint("client"))
        self._adaptation_stack()
        self._middleware()
        self._meta_level()
        self.ok = 0
        self.failed_in_sim = 0
        self.latencies: list[float] = []
        self.replies: list[tuple] = []
        self.op_times: list[float] = []
        self.queue_peak = 0
        self.hops = 0

    # -- the base level --------------------------------------------------

    def _adaptation_stack(self) -> None:
        spans = self.spans
        ports = [server.provided_port("svc") for server in self.servers]
        front_port = self.front.provided_port("svc")
        if spans is not None:
            for port in (*ports, front_port):
                port.add_interceptor(spans.interceptor("kernel"))
            for port in ports:
                port.add_interceptor(spans.interceptor("filters"))
        stamp = TransformFilter("stamp", self._stamp, match("render"))
        filters = FilterSet("ingress",
                            [stamp, PassFilter("allow", match("render"))])
        for port in ports:
            filters.attach_to(port)
            if spans is not None:
                port.add_interceptor(spans.interceptor("aspects"))
        audit = Aspect("audit")
        audit.before(self._count_call, component="serving-*",
                     operation="render")
        audit.after(lambda invocation, result: result,
                    component="serving-*", operation="render")
        Weaver().weave(audit, self.servers)
        chain = MetaChain("qos", [
            MetaObject("meter", lambda inv, proceed: proceed(inv),
                       priority=2),
            MetaObject("tag", self._tag, priority=1, modificatory=True),
        ])
        for port in ports:
            if spans is not None:
                port.add_interceptor(spans.interceptor("metaobjects"))
            port.add_interceptor(chain.interceptor())
        if spans is not None:
            for port in (*ports, front_port):
                port.add_interceptor(spans.interceptor("kernel.dispatch"))
            self.connector.interceptors.insert(
                0, spans.interceptor("connectors"))
        self.audited = 0

    @staticmethod
    def _stamp(invocation):
        invocation.meta["stamped"] = True
        return invocation

    def _count_call(self, invocation) -> None:
        self.audited += 1

    @staticmethod
    def _tag(invocation, proceed):
        invocation.meta["qos"] = "gold"
        return proceed(invocation)

    def _middleware(self) -> None:
        spans = self.spans
        for orb in self.orbs.values():
            orb.client_interceptors.append(deadline_propagation())
            orb.server_interceptors.append(self._admit)
            if spans is not None:
                orb.client_interceptors.insert(
                    0, spans.interceptor("middleware.client"))
                orb.server_interceptors.insert(
                    0, spans.interceptor("middleware.server"))
        front_orb = self.orbs[FRONT_HOST]
        front_orb.register("front", self.front.provided_port("svc"),
                           work_units=FRONT_WORK)
        if spans is not None:
            self.net.send = spans.wrap("netsim", self.net.send)
            self.net.taps.append(self._count_hops)

    @staticmethod
    def _admit(context, proceed) -> None:
        if "deadline" not in context.meta:
            raise CheckFailed("request reached the server without a deadline")
        proceed(context)

    def _count_hops(self, event: str, message) -> None:
        if event == "send":
            self.hops += len(self.net.route(message.source,
                                            message.destination)) - 1

    # -- the meta level --------------------------------------------------

    def _meta_level(self) -> None:
        raml = self.raml = Raml(self.assembly, period=SWEEP,
                                metric_window=1.0).instrument()
        if self.spans is not None:
            raml.sweep = self.spans.wrap("core", raml.sweep)
        self.adaptations: list[float] = []
        self.intercessions: list[float] = []
        raml.hub.subscribe(self._stream)
        raml.add_constraint(custom("error-rate", self._too_many_errors),
                            Response(adapt=self._adapt,
                                     reconfigure=self._intercede,
                                     escalate_after=2))

    def _stream(self, event) -> None:
        if event.source.startswith("connector:") and event.kind == "error":
            self.raml.record_metric("errors", 1.0)

    @staticmethod
    def _too_many_errors(view) -> list[str]:
        if "errors" not in view.metrics:
            return []
        count = view.metrics.series("errors").count
        return [f"{count} errors in the window"] if count > 2 else []

    def _adapt(self, raml, violations) -> None:
        if self.connector.retries == 0:
            self.connector.retries = 2
            self.adaptations.append(self.sim.now)

    def _intercede(self, raml, violations) -> None:
        active = self.connector.attachments["server"][0].target
        standby = next(server for server in self.servers
                       if server is not active.component)
        raml.intercessor.swap_connector_attachment(
            "media", "server", active, standby.provided_port("svc"))
        raml.metrics.series("errors").reset()
        self.connector.retries = 0
        self.intercessions.append(self.sim.now)

    def _degrade(self) -> None:
        active = self.connector.attachments["server"][0].target.component
        active.state["degraded"] = True
        self.sim.schedule(active.state.__setitem__, "degraded", False,
                          delay=REPAIR_AFTER)

    # -- the closed loop ---------------------------------------------------

    def _start_clients(self) -> None:
        for index, host in enumerate(CLIENT_HOSTS):
            think_seed, prefix = self.plan.clients[index]
            proxy = RemoteProxy(self.orbs[host], FRONT_HOST, "front",
                                media_interface(), timeout=1.0)
            client = _Client(self, index, proxy, random.Random(think_seed),
                             prefix)
            self.sim.schedule(client.issue_later, delay=client.think())

    def run(self) -> None:
        for when in self.plan.faults:
            self.sim.at(self._degrade, when=when)
        self.raml.start()
        self._start_clients()
        span(self.spans, "events", self.sim.run)(until=CYCLE_SIM_S)
        self.raml.stop()


class _Client:
    """One simulated client with a single request outstanding."""

    def __init__(self, scenario: Scenario, index: int, proxy: RemoteProxy,
                 rng: random.Random, prefix: str) -> None:
        self.scenario = scenario
        self.index = index
        self.proxy = proxy
        self.rng = rng
        self.prefix = prefix
        self.sent = 0
        spans = scenario.spans
        self.on_result = span(spans, "harness", self._on_result)
        self.on_error = span(spans, "harness", self._on_error)
        self.issue_later = span(spans, "harness", self.issue)

    def think(self) -> float:
        return self.rng.uniform(0.0, 0.002)

    def issue(self) -> None:
        scenario = self.scenario
        self.frame = f"{self.prefix}-{self.sent}"
        self.sent += 1
        if scenario.spans is not None:
            scenario.spans.request = self.index << 24 | self.sent
        self.issued_at = scenario.sim.now
        self.started = perf_counter()
        self.proxy.call("render", self.frame, on_result=self.on_result,
                        on_error=self.on_error)

    def _done(self, outcome: str, value: str) -> None:
        scenario = self.scenario
        scenario.op_times.append(perf_counter() - self.started)
        scenario.replies.append((self.index, self.frame, outcome, value))
        scenario.queue_peak = max(scenario.queue_peak, scenario.sim.queue_size)
        scenario.sim.schedule(self.issue_later, delay=self.think())

    def _on_result(self, value: str) -> None:
        scenario = self.scenario
        if value not in (f"{name}:{self.frame}" for name, _host in SERVING):
            raise CheckFailed(f"reply {value!r} to frame {self.frame!r}")
        scenario.ok += 1
        scenario.latencies.append(scenario.sim.now - self.issued_at)
        self._done("ok", value)

    def _on_error(self, exc: Exception) -> None:
        self.scenario.failed_in_sim += 1
        self._done("error", type(exc).__name__)


def setup_probe(plan: Plan) -> None:
    """Set-up as a user pays it: topology, assembly, ORBs and RAML."""
    Scenario(plan, None)


def run_cycle(plan: Plan, spans: Spans | None) -> Cycle:
    scenario = (span(spans, "harness", Scenario)(plan, spans))
    scenario.run()
    cycle = Cycle()
    cycle.op_times = scenario.op_times
    latencies = sorted(scenario.latencies)
    health = scenario.raml.health()
    cycle.outputs = {
        "ok": scenario.ok,
        "failed": scenario.failed_in_sim,
        "adaptations": scenario.adaptations,
        "intercessions": scenario.intercessions,
        "latency_p50": round(quantile(latencies, 0.50), 9),
        "latency_p99": round(quantile(latencies, 0.99), 9),
        "health": {key: health[key] for key in (
            "sweeps", "adaptations", "reconfigurations", "observed_events",
            "healthy")},
        "error_ratio": round(health["error_ratio"], 9),
        "replies": digest(scenario.replies),
    }
    cycle.problems = check(plan, cycle.outputs)
    orbs = scenario.orbs.values()
    net, connector, sim = scenario.net, scenario.connector, scenario.sim
    ops = len(scenario.op_times)
    cycle.counts = {
        "events.executed": sim.executed_events,
        "events.per_op": sim.executed_events / ops if ops else 0.0,
        "events.compactions": sim.compactions,
        "events.queue_peak": scenario.queue_peak,
        "netsim.sent": net.stats.sent,
        "netsim.delivered": net.stats.delivered,
        "netsim.dropped": net.stats.dropped,
        "netsim.hops": scenario.hops,
        "middleware.requests": sum(orb.stats.requests_sent for orb in orbs),
        "middleware.retries": sum(orb.stats.retries for orb in orbs),
        "middleware.timeouts": sum(orb.stats.timeouts for orb in orbs),
        "connectors.invocations": connector.stats.invocations,
        "connectors.errors": connector.stats.errors,
        "kernel.port_calls": sum(
            server.provided_port("svc").call_count
            for server in (*scenario.servers, scenario.front)),
        "core.sweeps": health["sweeps"],
        "core.adaptations": health["adaptations"],
        "core.reconfigurations": health["reconfigurations"],
        "core.observed_events": sum(scenario.raml.hub.counts.values()),
    }
    return cycle


def layer_times(spans: Spans, phase) -> dict[str, float]:
    """Per-layer host times of the traced phase."""
    sweeps = sorted(spans.durations["core"])
    return {
        "events.run_s": spans.self_s["events"] / len(phase.cycles),
        "netsim.send_us": spans.per_call_us("netsim"),
        "middleware.client_chain_us": spans.per_call_us("middleware.client"),
        "middleware.server_chain_us": spans.per_call_us("middleware.server"),
        "connectors.invoke_us": spans.per_call_us("connectors"),
        "filters.chain_us": spans.per_call_us("filters"),
        "aspects.advice_us": spans.per_call_us("aspects"),
        "metaobjects.chain_us": spans.per_call_us("metaobjects"),
        "kernel.dispatch_us": spans.per_call_us("kernel.dispatch"),
        "core.sweep_us_p50": quantile(sweeps, 0.50) * 1e6,
        "core.sweep_us_p99": quantile(sweeps, 0.99) * 1e6,
    }


def check(plan: Plan, outputs: dict) -> list[str]:
    """What every correct cycle must satisfy, whatever the seed."""
    problems = []
    faults = list(plan.faults)
    adaptations = outputs["adaptations"]
    intercessions = outputs["intercessions"]
    if len(adaptations) != len(faults) or len(intercessions) != len(faults):
        problems.append(
            f"{len(faults)} faults gave {len(adaptations)} adaptations and "
            f"{len(intercessions)} intercessions")
    else:
        for fault, adapted, interceded in zip(faults, adaptations,
                                              intercessions):
            if not fault < adapted <= interceded <= fault + 4 * SWEEP:
                problems.append(
                    f"fault at {fault} adapted at {adapted} and interceded "
                    f"at {interceded}")
    if outputs["health"]["reconfigurations"] != len(faults):
        problems.append("RAML health disagrees with the intercession count")
    if outputs["ok"] <= 0 or outputs["failed"] <= 0:
        problems.append(f"ok={outputs['ok']} failed={outputs['failed']}: "
                        "the fault schedule must fail some requests only")
    if not 0 < outputs["latency_p50"] <= outputs["latency_p99"] < 1.0:
        problems.append(f"simulated latency p50={outputs['latency_p50']} "
                        f"p99={outputs['latency_p99']}")
    return problems
