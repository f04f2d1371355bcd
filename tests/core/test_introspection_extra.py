"""Additional introspection-hub coverage: binding taps, buffers, queries."""

import gc
import weakref

import pytest

from repro.core import IntrospectionHub
from repro.events import Simulator
from repro.kernel import Component, Invocation, bind
from repro.telemetry import install

from tests.helpers import counter_interface, make_counter, make_flaky


def make_hub():
    return IntrospectionHub(Simulator())


def make_channel():
    client = Component("client")
    client.require("peer", counter_interface())
    client.activate()
    server = make_counter("server")
    binding = bind(client.required_port("peer"), server.provided_port("svc"))
    return client, server, binding


class TestBindingTap:
    def test_successful_calls_observed(self):
        hub = make_hub()
        client, _server, binding = make_channel()
        hub.tap_binding(binding)
        client.required_port("peer").call("increment", 1)
        events = [e for e in hub.recent() if e.source.startswith("binding:")]
        assert len(events) == 1
        assert events[0].kind == "call"
        assert events[0].operation == "increment"

    def test_failed_calls_observed_as_errors(self):
        import pytest

        hub = make_hub()
        client = Component("client")
        from tests.helpers import echo_interface

        client.require("peer", echo_interface())
        client.activate()
        flaky = make_flaky("flaky", failures=1)
        binding = bind(client.required_port("peer"),
                       flaky.provided_port("svc"))
        hub.tap_binding(binding)
        with pytest.raises(RuntimeError):
            client.required_port("peer").call("echo", "x")
        assert hub.count("error") == 1

    def test_double_tap_is_idempotent(self):
        hub = make_hub()
        client, _server, binding = make_channel()
        hub.tap_binding(binding)
        hub.tap_binding(binding)
        client.required_port("peer").call("total")
        binding_events = [e for e in hub.recent()
                          if e.source.startswith("binding:")]
        assert len(binding_events) == 1


class TestTapOnce:
    def test_new_port_at_a_freed_address_is_tapped(self):
        # A freed port's address is often reused by the next one: only
        # the live object may mark a port as tapped.
        hub = make_hub()
        for index in range(50):
            port = make_counter(f"c{index}").provided_port("svc")
            hub.tap_port(port)
            port.invoke(Invocation("total"))
            dropped = weakref.ref(port)
            del port
            gc.collect()
            assert dropped() is None
        assert [e.source for e in hub.events if e.kind == "call"] == [
            f"port:c{index}.svc" for index in range(50)]


class TestHubQueries:
    def test_ring_buffer_caps_history(self):
        hub = IntrospectionHub(Simulator(), buffer_size=10)
        for index in range(25):
            hub.emit("src", "tick", str(index))
        assert len(hub.events) == 10
        assert hub.recent(5)[-1].operation == "24"
        # Counters keep the full tally even when events rotate out.
        assert hub.count("tick") == 25

    def test_recent_returns_at_most_count_and_audits_its_length(self):
        sim = Simulator()
        tracer = install(sim, kernel_detail=None)
        hub = IntrospectionHub(sim)
        for index in range(5):
            hub.emit("src", "tick", str(index))
        assert hub.recent(0) == []
        assert [e.operation for e in hub.recent(2)] == ["3", "4"]
        assert [e.operation for e in hub.recent(9)] == list("01234")
        with pytest.raises(ValueError):
            hub.recent(-2)
        assert [(r.fields["count"], r.fields["returned"])
                for r in tracer.audit.of_kind("raml.introspect")] == [
            (0, 0), (2, 2), (9, 5)]

    def test_subscribers_receive_live_events(self):
        hub = make_hub()
        seen = []
        hub.subscribe(lambda event: seen.append(event.kind))
        hub.emit("src", "call")
        hub.emit("src", "error")
        assert seen == ["call", "error"]

    def test_error_ratio_zero_without_traffic(self):
        assert make_hub().error_ratio() == 0.0

    def test_component_tap_covers_all_ports(self):
        hub = make_hub()
        component = make_counter("multi")
        from tests.helpers import echo_interface

        class Extra:
            def echo(self, value):
                return value

        component.provide("aux", echo_interface(), implementation=Extra())
        hub.tap_component(component)
        from repro.kernel import Invocation

        component.provided_port("svc").invoke(Invocation("total"))
        component.provided_port("aux").invoke(Invocation("echo", ("x",)))
        sources = {e.source for e in hub.recent()}
        assert "port:multi.svc" in sources
        assert "port:multi.aux" in sources
