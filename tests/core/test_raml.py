"""Unit tests for RAML: introspection, constraints, intercession, sweeps."""

import pytest

from repro.core import (
    Raml,
    Response,
    all_nodes_up,
    behavioural_conformance,
    custom,
    max_error_ratio,
    metric_bound,
    node_load_below,
    structural_consistency,
)
from repro.connectors import RpcConnector
from repro.errors import RamlError
from repro.events import Simulator
from repro.kernel import Assembly, Invocation
from repro.lts import Lts
from repro.netsim import Message, star
from repro.telemetry import install

from tests.helpers import CounterComponent, counter_interface, make_flaky


def fresh_counter(name):
    component = CounterComponent(name)
    component.provide("svc", counter_interface())
    return component


def wired_raml():
    sim = Simulator()
    assembly = Assembly(star(sim, leaves=3))
    client = CounterComponent("client")
    client.provide("svc", counter_interface())
    client.require("peer", counter_interface())
    assembly.deploy(client, "leaf0")
    server = assembly.deploy(fresh_counter("server"), "leaf1")
    assembly.connect("client", "peer", target_component="server")
    raml = Raml(assembly, period=1.0).instrument()
    return sim, assembly, raml, client, server


class TestIntrospection:
    def test_port_calls_observed(self):
        _sim, _assembly, raml, client, _server = wired_raml()
        client.required_port("peer").call("increment", 1)
        kinds = [event.kind for event in raml.hub.recent()]
        assert "call" in kinds
        assert "return" in kinds

    def test_error_ratio(self):
        sim = Simulator()
        assembly = Assembly(star(sim, leaves=1))
        flaky = make_flaky("flaky", failures=1)
        # Deploy after creation so container activates it.
        flaky.lifecycle  # touch
        assembly.container_on("leaf0").deploy(flaky)
        raml = Raml(assembly).instrument()
        port = flaky.provided_port("svc")
        with pytest.raises(RuntimeError):
            port.invoke(Invocation("echo", ("x",)))
        port.invoke(Invocation("echo", ("x",)))
        assert 0 < raml.hub.error_ratio() < 1

    def test_registry_events_observed(self):
        _sim, assembly, raml, _client, _server = wired_raml()
        assembly.deploy(fresh_counter("late"), "leaf2")
        assert raml.hub.count("register") == 1

    def test_lifecycle_events_observed(self):
        _sim, _assembly, raml, _client, server = wired_raml()
        server.passivate()
        lifecycle_events = [e for e in raml.hub.recent()
                            if e.kind == "lifecycle"]
        assert lifecycle_events
        assert lifecycle_events[-1].operation == "passive"


def instrumented_run(instrument_calls):
    """Instrument ``instrument_calls`` times, then drive every tapped site
    once: two bound calls, a network message, a registration and a
    lifecycle change."""
    sim = Simulator()
    assembly = Assembly(star(sim, leaves=3))
    client = CounterComponent("client")
    client.require("peer", counter_interface())
    assembly.deploy(client, "leaf0")
    server = fresh_counter("server")
    server.behaviour = Lts.from_triples("proto", [
        ("s0", "increment", "s1"),
        ("s1", "total", "s0"),
    ])
    assembly.deploy(server, "leaf1")
    assembly.connect("client", "peer", target_component="server")
    raml = Raml(assembly, period=1.0)
    for _ in range(instrument_calls):
        raml.instrument()
    client.required_port("peer").call("increment", 1)
    client.required_port("peer").call("total")
    assembly.network.send(Message("leaf0", "leaf1", "status", size=64))
    sim.run()
    assembly.deploy(fresh_counter("late"), "leaf2")
    server.passivate()
    return raml


class TestInstrumentIdempotent:
    def test_second_instrument_adds_no_taps(self):
        once, twice = instrumented_run(1), instrumented_run(2)
        assert once.hub.counts == {"call": 4, "return": 2, "send": 1,
                                   "deliver": 1, "register": 1,
                                   "lifecycle": 1}
        assert twice.hub.counts == once.hub.counts
        assert list(twice.hub.events) == list(once.hub.events)
        assert twice.conformance.violations == []


class TestTraceConformance:
    def test_conforming_calls_pass(self):
        _sim, _assembly, raml, client, server = wired_raml()
        server.behaviour = Lts.from_triples("proto", [
            ("s0", "increment", "s0"),
            ("s0", "total", "s0"),
        ])
        raml.conformance.attach(server)
        client.required_port("peer").call("increment", 1)
        client.required_port("peer").call("total")
        assert raml.conformance.conforming("server")

    def test_violation_detected_and_reanchored(self):
        _sim, _assembly, raml, client, server = wired_raml()
        # Protocol demands strict alternation increment/total.
        server.behaviour = Lts.from_triples("proto", [
            ("s0", "increment", "s1"),
            ("s1", "total", "s0"),
        ])
        raml.conformance.attach(server)
        client.required_port("peer").call("increment", 1)
        client.required_port("peer").call("increment", 1)  # violation
        assert not raml.conformance.conforming("server")
        assert raml.conformance.violations == [("server", "increment")]
        # Re-anchored: a fresh increment/total pair is accepted again.
        client.required_port("peer").call("total")


class TestConstraints:
    def test_structural_consistency_clean(self):
        _sim, _assembly, raml, _client, _server = wired_raml()
        raml.add_constraint(structural_consistency())
        record = raml.sweep()
        assert record.healthy

    def test_unbound_port_detected(self):
        _sim, assembly, raml, client, _server = wired_raml()
        raml.add_constraint(structural_consistency())
        client.required_port("peer").binding.unbind()
        record = raml.sweep()
        assert "structural-consistency" in record.violations

    def test_duplicate_constraint_rejected(self):
        _sim, _assembly, raml, _c, _s = wired_raml()
        raml.add_constraint(structural_consistency())
        with pytest.raises(RamlError):
            raml.add_constraint(structural_consistency())

    def test_metric_bound_upper(self):
        _sim, _assembly, raml, _c, _s = wired_raml()
        raml.add_constraint(metric_bound("latency", "mean", 0.1))
        raml.record_metric("latency", 0.5)
        record = raml.sweep()
        assert record.violations

    def test_metric_bound_lower(self):
        _sim, _assembly, raml, _c, _s = wired_raml()
        raml.add_constraint(metric_bound("fps", "mean", 24.0, lower=True))
        raml.record_metric("fps", 10.0)
        assert raml.sweep().violations

    def test_metric_bound_vacuous_when_no_data(self):
        _sim, _assembly, raml, _c, _s = wired_raml()
        raml.add_constraint(metric_bound("latency", "mean", 0.1))
        assert raml.sweep().healthy

    def test_max_error_ratio(self):
        _sim, _assembly, raml, _c, _s = wired_raml()
        raml.add_constraint(max_error_ratio(0.01))
        assert raml.sweep().healthy

    def test_all_nodes_up_detects_crash(self):
        _sim, assembly, raml, _c, _s = wired_raml()
        raml.add_constraint(all_nodes_up())
        assembly.network.node("leaf1").crash()
        record = raml.sweep()
        assert "hosting-nodes-up" in record.violations

    def test_node_load_constraint(self):
        _sim, assembly, raml, _c, _s = wired_raml()
        raml.add_constraint(node_load_below(0.8))
        assembly.network.node("leaf1").set_background_load(0.95)
        assert raml.sweep().violations

    def test_behavioural_conformance_constraint(self):
        _sim, _assembly, raml, client, server = wired_raml()
        server.behaviour = Lts.from_triples("proto", [
            ("s0", "total", "s0"),
        ])
        raml.conformance.attach(server)
        raml.add_constraint(behavioural_conformance())
        client.required_port("peer").call("increment", 1)  # not allowed
        record = raml.sweep()
        assert "behavioural-conformance" in record.violations


class TestDecideAct:
    def test_adaptation_response_runs_each_violating_sweep(self):
        _sim, _assembly, raml, _c, _s = wired_raml()
        adaptations = []
        raml.add_constraint(
            custom("always-bad", lambda view: ["bad"]),
            Response(adapt=lambda r, v: adaptations.append(v)),
        )
        raml.sweep()
        raml.sweep()
        assert len(adaptations) == 2
        assert raml.health()["adaptations"] == 2

    def test_escalation_to_reconfiguration_after_streak(self):
        _sim, _assembly, raml, _c, _s = wired_raml()
        reconfigs = []
        raml.add_constraint(
            custom("always-bad", lambda view: ["bad"]),
            Response(reconfigure=lambda r, v: reconfigs.append(r.now),
                     escalate_after=3),
        )
        raml.sweep()
        raml.sweep()
        assert reconfigs == []
        raml.sweep()
        assert len(reconfigs) == 1
        # Streak reset after escalation: two more sweeps do not re-fire.
        raml.sweep()
        raml.sweep()
        assert len(reconfigs) == 1

    def test_streak_resets_when_healthy(self):
        flag = {"bad": True}
        _sim, _assembly, raml, _c, _s = wired_raml()
        reconfigs = []
        raml.add_constraint(
            custom("flappy", lambda view: ["bad"] if flag["bad"] else []),
            Response(reconfigure=lambda r, v: reconfigs.append(1),
                     escalate_after=2),
        )
        raml.sweep()
        flag["bad"] = False
        raml.sweep()  # healthy: streak resets
        flag["bad"] = True
        raml.sweep()
        assert reconfigs == []
        raml.sweep()
        assert len(reconfigs) == 1

    def test_warn_severity_never_triggers_response(self):
        _sim, _assembly, raml, _c, _s = wired_raml()
        actions = []
        raml.add_constraint(
            custom("warn-only", lambda view: ["meh"], severity="warn"),
            Response(adapt=lambda r, v: actions.append(1), escalate_after=1),
        )
        raml.sweep()
        assert actions == []

    def test_periodic_sweeps(self):
        sim, _assembly, raml, _c, _s = wired_raml()
        raml.add_constraint(structural_consistency())
        raml.start()
        sim.run(until=4.5)
        raml.stop()
        assert len(raml.history) == 4
        assert raml.health()["sweeps"] == 4


class TestIntercession:
    def test_replace_component_via_intercessor(self):
        _sim, assembly, raml, client, _server = wired_raml()
        client.required_port("peer").call("increment", 10)
        replacement = fresh_counter("server-v2")
        report = raml.intercessor.replace_component("server", replacement)
        assert report.state.value == "committed"
        assert client.required_port("peer").call("total") == 10

    def test_migrate_via_intercessor(self):
        _sim, assembly, raml, _client, server = wired_raml()
        raml.intercessor.migrate("server", "leaf2")
        assert server.node_name == "leaf2"

    def test_rewire_via_intercessor(self):
        _sim, assembly, raml, client, server = wired_raml()
        assembly.deploy(fresh_counter("backup"), "leaf2")
        raml.intercessor.rewire("client", "peer", "backup")
        client.required_port("peer").call("increment", 5)
        assert assembly.component("backup").state["total"] == 5
        assert server.state["total"] == 0

    def test_transactions_logged(self):
        _sim, _assembly, raml, _client, _server = wired_raml()
        raml.intercessor.migrate("server", "leaf2")
        assert len(raml.intercessor.transactions) == 1

    def respond_once(self, raml, act):
        """Sweep once under a tracer with a constraint that always fails
        and a response that acts at once; returns the intercession audit."""
        tracer = install(raml.assembly.sim, kernel_detail=None)
        raml.add_constraint(
            custom("always-bad", lambda view: ["bad"]),
            Response(reconfigure=lambda raml_, violations: act(raml_),
                     escalate_after=1))
        record = raml.sweep()
        assert record.reconfigured == ["always-bad"]
        (report,) = raml.intercessor.transactions
        assert report.state.value == "committed"
        (audit,) = tracer.audit.of_kind("raml.intercession")
        assert audit.fields["mechanism"] == "reconfiguration"
        assert audit.fields["outcome"] == "committed"
        return audit

    def test_swap_connector_via_response(self):
        _sim, assembly, raml, client, server = wired_raml()
        assembly.disconnect(client.required_port("peer").binding)
        front = RpcConnector("front", counter_interface())
        front.attach("server", server.provided_port("svc"))
        assembly.add_connector(front)
        assembly.connect("client", "peer", target=front.endpoint("client"))
        replacement = RpcConnector("front-v2", counter_interface())
        audit = self.respond_once(
            raml, lambda raml_: raml_.intercessor.swap_connector(
                "front", replacement))
        assert audit.fields["action"] == "swap-connector:front"
        assert sorted(assembly.connectors) == ["front-v2"]
        assert not front.enabled
        client.required_port("peer").call("increment", 4)
        assert server.state["total"] == 4

    def test_add_component_via_response(self):
        _sim, assembly, raml, _client, _server = wired_raml()
        audit = self.respond_once(
            raml, lambda raml_: raml_.intercessor.add_component(
                fresh_counter("extra"), "leaf2"))
        assert audit.fields["action"] == "add:extra"
        assert "extra" in assembly.registry
        assert assembly.component("extra").node_name == "leaf2"

    def test_replace_implementation_via_response(self):
        _sim, _assembly, raml, client, server = wired_raml()

        class Doubling:
            def __init__(self, state):
                self.state = state

            def increment(self, amount=1):
                self.state["total"] += amount * 2
                return self.state["total"]

            def total(self):
                return self.state["total"]

        audit = self.respond_once(
            raml, lambda raml_: raml_.intercessor.replace_implementation(
                "server", "svc", Doubling(server.state)))
        assert audit.fields["action"] == "reimplement:server.svc"
        assert client.required_port("peer").call("increment", 5) == 10
        assert server.state["total"] == 10

    def test_swap_attachment_unknown_connector_rejected(self):
        _sim, _assembly, raml, _client, _server = wired_raml()
        with pytest.raises(RamlError):
            raml.intercessor.swap_connector_attachment("ghost", "r", None, None)

    def test_raml_closed_loop_self_heals(self):
        """End-to-end: constraint violation -> escalated reconfiguration."""
        sim, assembly, raml, client, server = wired_raml()
        assembly.deploy(fresh_counter("standby"), "leaf2")

        def failover(raml_, violations):
            raml_.intercessor.rewire("client", "peer", "standby")

        def peer_target_alive(view):
            # The property the failover actually repairs: the client's
            # dependency must target a component on a live node.
            owner = client.required_port("peer").binding.target.component
            node = view.assembly.network.nodes[owner.node_name]
            return [] if node.up else [f"{owner.name} hosted on dead node"]

        raml.add_constraint(
            custom("peer-target-alive", peer_target_alive),
            Response(reconfigure=failover, escalate_after=2),
        )
        raml.start()
        sim.at(assembly.network.node("leaf1").crash, when=2.5)
        sim.run(until=10.0)
        raml.stop()
        # The binding now points at standby; traffic flows again.
        assert client.required_port("peer").call("increment", 1) == 1
        assert assembly.component("standby").state["total"] == 1
        assert raml.health()["reconfigurations"] == 1
