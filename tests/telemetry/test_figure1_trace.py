"""Acceptance: the Figure-1 scenario exports a valid, deterministic trace.

Runs the paper's Figure-1 story (serving components behind a connector,
introspection up, adaptation then intercession down) with full telemetry
— kernel timeline, connector spans, message lineage over a 2-hop star
route, RAML decision audit — and checks that the Chrome ``trace_event``
export is structurally valid and byte-for-byte reproducible across two
identical runs.
"""

import json

from repro import Simulator, star
from repro.core import Raml, Response, custom
from repro.connectors import RpcConnector
from repro.events import PeriodicTimer
from repro.kernel import Assembly, Component, Interface, Operation
from repro.netsim import Message, MessageIdAllocator, use_allocator
from repro.telemetry import (
    chrome_trace,
    chrome_trace_json,
    install,
    instrument_assembly,
    trace_checksum,
)


def media_interface():
    return Interface("Media", "1.0", [Operation("render", ("frame",))])


class ServingComponent(Component):
    def on_initialize(self):
        self.state.setdefault("rendered", 0)
        self.state.setdefault("degraded", False)

    def render(self, frame):
        if self.state["degraded"]:
            raise RuntimeError(f"{self.name}: renderer wedged")
        self.state["rendered"] += 1
        return f"{self.name}:{frame}"


def run_scenario():
    """One fully-traced Figure-1 run; returns the tracer."""
    use_allocator(MessageIdAllocator(1))  # ids appear in the trace
    sim = Simulator()
    tracer = install(sim, kernel_detail="events")
    net = star(sim, leaves=3)
    assembly = Assembly(net, name="figure1")

    serving_a = ServingComponent("serving-a")
    serving_a.provide("svc", media_interface())
    assembly.deploy(serving_a, "leaf0")
    serving_b = ServingComponent("serving-b")
    serving_b.provide("svc", media_interface())
    assembly.deploy(serving_b, "leaf1")

    connector = RpcConnector("media-connector", media_interface())
    connector.attach("server", serving_a.provided_port("svc"))
    assembly.add_connector(connector)

    client = Component("client")
    client.require("media", media_interface())
    assembly.deploy(client, "leaf2")
    assembly.connect("client", "media", target=connector.endpoint("client"))
    instrument_assembly(tracer, assembly)

    raml = Raml(assembly, period=0.25, metric_window=1.0).instrument()

    def stream(event):
        if event.source.startswith("connector:") and event.kind == "error":
            raml.record_metric("render.errors", 1.0)

    raml.hub.subscribe(stream)

    def error_rate(view):
        if "render.errors" not in view.metrics:
            return []
        series = view.metrics.series("render.errors")
        if series.count > 2:
            return [f"{series.count} render errors in the last second"]
        return []

    def adapt(raml_, violations):
        if connector.retries == 0:
            connector.retries = 2

    def intercede(raml_, violations):
        active = connector.attachments["server"][0].target
        standby = (serving_b if active.component is serving_a
                   else serving_a).provided_port("svc")
        raml_.intercessor.swap_connector_attachment(
            "media-connector", "server", active, standby)
        raml_.metrics.series("render.errors").reset()

    raml.add_constraint(
        custom("render-error-rate", error_rate),
        Response(adapt=adapt, reconfigure=intercede, escalate_after=3),
    )
    raml.start()

    # Base-level traffic through the connector...
    def call():
        try:
            client.required_port("media").call("render", "f")
        except RuntimeError:
            pass

    traffic = PeriodicTimer(sim, 0.05, call, name="traffic")

    # ...and client->serving status reports over the 2-hop star route.
    net.node("leaf0").bind_endpoint("status", lambda node, message: None)

    def report():
        net.send(Message("leaf2", "leaf0", "status", size=128))

    reporter = PeriodicTimer(sim, 0.5, report, name="status-reporter")

    sim.at(lambda: serving_a.state.__setitem__("degraded", True), when=2.0)
    sim.run(until=6.0)
    traffic.stop()
    reporter.stop()
    raml.stop()
    assert serving_b.state["rendered"] > 0, "intercession must have fired"
    return tracer


class TestFigure1Trace:
    def test_trace_is_valid_and_complete(self):
        tracer = run_scenario()
        doc = chrome_trace(tracer)
        events = doc["traceEvents"]

        # Structurally valid trace_event JSON: serializable, and every
        # record carries a phase + pid (plus ts for non-metadata events).
        json.loads(chrome_trace_json(tracer))
        assert all("ph" in e and "pid" in e for e in events)
        assert all("ts" in e for e in events if e["ph"] != "M")

        # Kernel timeline made it into the export.
        kernel = [e for e in events
                  if e["ph"] == "i" and e.get("cat") == "kernel"]
        assert len(kernel) > 50

        # Message lineage: at least one delivered flow with two hop
        # children covering leaf2 -> hub -> leaf0.
        flows = [s for s in tracer.spans if s.category == "net.msg"
                 and s.args.get("outcome") == "delivered"]
        assert flows
        flow = flows[0]
        hops = [s for s in tracer.spans if s.category == "net.hop"
                and s.parent_id == flow.span_id]
        assert [h.name for h in hops] == ["leaf2->hub", "hub->leaf0"]

        # Connector activity was traced, including the failing calls.
        connector_spans = [s for s in tracer.spans
                           if s.category == "connector"]
        assert any(s.args["outcome"] == "error" for s in connector_spans)
        assert any(s.args["outcome"] == "ok" for s in connector_spans)

        # RAML decision audit: observation sweeps, the adapt->escalate
        # decisions and the intercession all left records.
        audit_kinds = tracer.audit.kinds()
        assert audit_kinds.get("raml.sweep", 0) > 0
        assert audit_kinds.get("raml.decision", 0) > 0
        assert audit_kinds.get("raml.intercession", 0) > 0
        decisions = tracer.audit.of_kind("raml.decision")
        actions = {r.fields["action"] for r in decisions}
        assert actions == {"adapt", "reconfigure"}

    def test_trace_deterministic_across_same_seed_runs(self):
        first = run_scenario()
        second = run_scenario()
        checksum = trace_checksum(first)
        assert checksum == trace_checksum(second)
        # Not vacuous: the trace has real content behind the checksum.
        assert len(chrome_trace(first)["traceEvents"]) > 100
        assert len(first.audit) > 0


class TestInstrumentAssembly:
    def test_instrumenting_twice_records_each_invocation_once(self):
        sim = Simulator()
        tracer = install(sim, kernel_detail=None)
        assembly = Assembly(star(sim, leaves=2), name="twice")
        serving = ServingComponent("serving")
        serving.provide("svc", media_interface())
        assembly.deploy(serving, "leaf0")
        connector = RpcConnector("media-connector", media_interface())
        connector.attach("server", serving.provided_port("svc"))
        assembly.add_connector(connector)
        client = Component("client")
        client.require("media", media_interface())
        assembly.deploy(client, "leaf1")
        assembly.connect("client", "media",
                         target=connector.endpoint("client"))
        instrument_assembly(tracer, assembly)
        instrument_assembly(tracer, assembly)
        client.required_port("media").call("render", "f")
        spans = [span for span in tracer.spans
                 if span.category == "connector"]
        assert [span.name for span in spans] == ["media-connector.render"]
