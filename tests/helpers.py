"""Shared component fixtures used across the test suite."""

from repro.kernel import Component, Interface, Operation
from repro.reconfig import Change


def counter_interface(version="1.0"):
    return Interface("Counter", version, [
        Operation("increment", ("amount",), optional=1),
        Operation("total", ()),
    ])


class CounterComponent(Component):
    """A stateful counter; the canonical stateful test component."""

    def on_initialize(self):
        self.state.setdefault("total", 0)

    def increment(self, amount=1):
        self.state["total"] += amount
        return self.state["total"]

    def total(self):
        return self.state["total"]


def make_counter(name="counter", version="1.0"):
    component = CounterComponent(name)
    component.provide("svc", counter_interface(version))
    component.activate()
    return component


def echo_interface():
    return Interface("Echo", "1.0", [Operation("echo", ("value",))])


class EchoComponent(Component):
    """Stateless component that records and returns what it sees."""

    def on_initialize(self):
        self.state.setdefault("seen", [])

    def echo(self, value):
        self.state["seen"].append(value)
        return f"{self.name}:{value}"


def make_echo(name="echo"):
    component = EchoComponent(name)
    component.provide("svc", echo_interface())
    component.activate()
    return component


def stage_interface():
    return Interface("Stage", "1.0", [Operation("process", ("value",))])


class StageComponent(Component):
    """Pipeline stage applying a function to the value."""

    def __init__(self, name, transform):
        super().__init__(name)
        self._transform = transform

    def process(self, value):
        return self._transform(value)


def make_stage(name, transform):
    component = StageComponent(name, transform)
    component.provide("svc", stage_interface())
    component.activate()
    return component


class FlakyComponent(Component):
    """Fails the first ``failures`` calls, then succeeds."""

    def __init__(self, name, failures=1):
        super().__init__(name)
        self.remaining_failures = failures
        self.calls = 0

    def echo(self, value):
        self.calls += 1
        if self.remaining_failures > 0:
            self.remaining_failures -= 1
            raise RuntimeError(f"{self.name} transient failure")
        return f"{self.name}:{value}"


def make_flaky(name="flaky", failures=1):
    component = FlakyComponent(name, failures)
    component.provide("svc", echo_interface())
    component.activate()
    return component


class ExplodingChange(Change):
    """Raises in apply; drives a transaction's abort and rollback paths."""

    description = "exploding change"

    def apply(self, assembly):
        raise RuntimeError("boom")

    def revert(self, assembly):
        pass
