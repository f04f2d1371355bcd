"""Every interception chain on the platform follows one snapshot rule.

``run_chain`` reads a chain once, when a call enters it.  An interceptor
that edits its holder in flight changes the next call, never the one
running, and a continuation kept for later (a buffered message) resumes
the chain it was cut from.
"""

import pytest

from repro.aspects import Advice, AdviceKind, Aspect, Pointcut, Weaver
from repro.connectors import Connector, callee, caller
from repro.events import Simulator
from repro.filters import Filter, FilterSet, WaitFilter
from repro.frameworks import CompositionFramework, SlotSpec
from repro.injectors import Injector, InjectorManager
from repro.kernel import Component, Invocation, bind
from repro.metaobjects import MetaChain, MetaObject
from repro.middleware import Orb
from repro.netsim import star

from tests.helpers import echo_interface, make_echo


def echo_call():
    return Invocation("echo", ("x",))


def bound_client(server):
    client = Component("client")
    client.require("out", echo_interface())
    client.activate()
    binding = bind(client.required_port("out"), server.provided_port("svc"))
    return client.required_port("out"), binding


class ProvidedPortHolder:
    def __init__(self):
        self.port = make_echo().provided_port("svc")

    def element(self, name, fn):
        return fn

    def add(self, element):
        self.port.add_interceptor(element)

    def remove(self, element):
        self.port.remove_interceptor(element)

    def call(self):
        self.port.invoke(echo_call())


class RequiredPortHolder:
    def __init__(self):
        self.port, _binding = bound_client(make_echo())

    def element(self, name, fn):
        return fn

    def add(self, element):
        self.port.interceptors.append(element)

    def remove(self, element):
        self.port.interceptors.remove(element)

    def call(self):
        self.port.call("echo", "x")


class ConnectorHolder:
    def __init__(self):
        self.connector = Connector("conn", [
            caller("client", echo_interface()),
            callee("server", echo_interface()),
        ])
        self.connector.attach("server", make_echo().provided_port("svc"))

    def element(self, name, fn):
        return fn

    def add(self, element):
        self.connector.interceptors.append(element)

    def remove(self, element):
        self.connector.interceptors.remove(element)

    def call(self):
        self.connector.invoke_from("client", echo_call())


class FrameworkHolder:
    def __init__(self):
        self.framework = CompositionFramework(
            "cabinet", [SlotSpec("codec", echo_interface())])
        self.framework.plug("codec", make_echo().provided_port("svc"))

    def element(self, name, fn):
        return name, fn

    def add(self, element):
        self.framework.install_aspect(*element)

    def remove(self, element):
        self.framework.remove_aspect(element[0])

    def call(self):
        self.framework.facade("codec").invoke(echo_call())


class OrbHolder:
    """One ORB chain; ``side`` picks the client or the server chain."""

    def __init__(self, side):
        self.sim = Simulator()
        net = star(self.sim, leaves=2)
        self.client = Orb(net, "leaf0")
        server = Orb(net, "leaf1")
        server.register("echo", make_echo().provided_port("svc"))
        owner = self.client if side == "client" else server
        self.chain = getattr(owner, f"{side}_interceptors")

    def element(self, name, fn):
        return fn

    def add(self, element):
        self.chain.append(element)

    def remove(self, element):
        self.chain.remove(element)

    def call(self):
        replies = []
        self.client.call("leaf1", "echo", "echo", "x",
                         on_result=replies.append)
        self.sim.run()
        assert replies == ["echo:x"]


class _FnFilter(Filter):
    def __init__(self, name, fn):
        super().__init__(name)
        self.fn = fn

    def on_match(self, invocation, proceed):
        return self.fn(invocation, proceed)


class FilterSetHolder:
    def __init__(self):
        self.port = make_echo().provided_port("svc")
        self.filters = FilterSet("set")
        self.filters.attach_to(self.port)

    def element(self, name, fn):
        return _FnFilter(name, fn)

    def add(self, element):
        self.filters.append(element)

    def remove(self, element):
        self.filters.remove(element.name)

    def call(self):
        self.port.invoke(echo_call())


class MetaChainHolder:
    def __init__(self):
        self.port = make_echo().provided_port("svc")
        self.chain = MetaChain("meta")
        self.port.add_interceptor(self.chain.interceptor())

    def element(self, name, fn):
        return MetaObject(name, fn)

    def add(self, element):
        self.chain.add(element)

    def remove(self, element):
        self.chain.remove(element.name)

    def call(self):
        self.port.invoke(echo_call())


class AroundAdviceHolder:
    """Around advice of one dynamically woven aspect."""

    def __init__(self):
        self.server = make_echo()
        self.aspect = Aspect("around")
        self.woven = False

    def element(self, name, fn):
        return Pointcut(), Advice(AdviceKind.AROUND, fn, name)

    def add(self, element):
        self.aspect.add(*element)

    def remove(self, element):
        self.aspect.pieces.remove(element)

    def call(self):
        if not self.woven:  # weaving needs a piece to match
            Weaver().weave(self.aspect, [self.server])
            self.woven = True
        self.server.provided_port("svc").invoke(echo_call())


class _FnInjector(Injector):
    def __init__(self, name, fn):
        super().__init__(name)
        self.fn = fn

    def handle(self, invocation, forward):
        return self.fn(invocation, forward)


class InjectedChannelHolder:
    def __init__(self):
        self.port, self.binding = bound_client(make_echo())
        self.manager = InjectorManager()

    def element(self, name, fn):
        return _FnInjector(name, fn)

    def add(self, element):
        self.manager.inject(element, [self.binding])

    def remove(self, element):
        self.manager.retract(element.name)

    def call(self):
        self.port.call("echo", "x")


HOLDERS = {
    "provided-port": ProvidedPortHolder,
    "required-port": RequiredPortHolder,
    "connector": ConnectorHolder,
    "framework-aspects": FrameworkHolder,
    "orb-client": lambda: OrbHolder("client"),
    "orb-server": lambda: OrbHolder("server"),
    "filter-set": FilterSetHolder,
    "meta-chain": MetaChainHolder,
    "around-advice": AroundAdviceHolder,
    "injected-channel": InjectedChannelHolder,
}


@pytest.mark.parametrize("make_holder", HOLDERS.values(), ids=HOLDERS.keys())
def test_in_flight_call_runs_the_chain_it_entered(make_holder):
    holder = make_holder()
    trace = []

    def recorder(name):
        def fn(invocation, proceed):
            trace.append(name)
            return proceed(invocation)
        return fn

    def one_shot(invocation, proceed):
        trace.append("once")
        holder.remove(once)
        holder.add(late)
        return proceed(invocation)

    once = holder.element("once", one_shot)
    late = holder.element("c", recorder("c"))
    holder.add(once)
    holder.add(holder.element("b", recorder("b")))

    holder.call()
    assert trace == ["once", "b"]
    trace.clear()
    holder.call()
    assert trace == ["b", "c"]


def test_released_message_resumes_the_chain_it_was_buffered_in():
    trace = []
    gate = {"open": False}

    def recorder(name):
        def fn(invocation, proceed):
            trace.append(name)
            return proceed(invocation)
        return _FnFilter(name, fn)

    wait = WaitFilter("wait", lambda: gate["open"])
    filters = FilterSet("set", [recorder("a"), wait, recorder("b"),
                                recorder("c")])
    port = make_echo().provided_port("svc")
    filters.attach_to(port)

    assert port.invoke(echo_call()) is None
    assert wait.pending == 1
    filters.remove("a")
    gate["open"] = True
    assert wait.release() == ["echo:x"]
    assert trace == ["a", "b", "c"]

