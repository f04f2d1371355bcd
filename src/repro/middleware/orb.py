"""The object request broker.

The paper's adaptive-middleware substrate: a CORBA-like ORB per node with
object adapters (the POA role), client/server request interceptors (the
pluggable-protocols hook), deadlines, retries, and reflective QoS
observation — every request's latency and outcome can be fed to RAML.

Requests travel as :class:`~repro.netsim.message.Message` objects through
the simulated network, so they experience real latency, bandwidth,
loss and node failures.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.errors import MiddlewareError, RequestError
from repro.errors import TimeoutError as OrbTimeoutError
from repro.events import Timer
from repro.kernel.component import Invocation, ProvidedPort, run_chain
from repro.netsim.message import Message
from repro.netsim.network import Network
from repro.netsim.node import Node

_request_ids = itertools.count(1)


@dataclass
class RequestContext:
    """One remote invocation as interceptors see it."""

    request_id: int
    object_key: str
    operation: str
    args: tuple
    source_node: str
    target_node: str
    deadline: float | None = None
    meta: dict[str, Any] = field(default_factory=dict)


#: Interceptor: fn(context, proceed) — may rewrite, short-circuit, observe.
RequestInterceptor = Callable[[RequestContext, Callable[[RequestContext], None]], None]


@dataclass
class _Pending:
    context: RequestContext
    on_result: Callable[[Any], None] | None
    on_error: Callable[[Exception], None] | None
    timer: Timer | None
    sent_at: float
    retries_left: int = 0


@dataclass
class _Servant:
    port: ProvidedPort
    work_units: float


@dataclass
class OrbStats:
    requests_sent: int = 0
    requests_served: int = 0
    responses_received: int = 0
    timeouts: int = 0
    remote_errors: int = 0
    retries: int = 0
    total_latency: float = 0.0

    @property
    def mean_latency(self) -> float:
        if not self.responses_received:
            return 0.0
        return self.total_latency / self.responses_received


class Orb:
    """One node's request broker."""

    ENDPOINT = "orb"

    def __init__(self, network: Network, node_name: str,
                 default_timeout: float = 1.0) -> None:
        self.network = network
        self.node_name = node_name
        self.node: Node = network.node(node_name)
        self.default_timeout = default_timeout
        self.servants: dict[str, _Servant] = {}
        self.pending: dict[int, _Pending] = {}
        self.client_interceptors: list[RequestInterceptor] = []
        self.server_interceptors: list[RequestInterceptor] = []
        self.stats = OrbStats()
        #: Reflective QoS observers: fn(kind, context, latency_or_none).
        self.qos_observers: list[Callable[[str, RequestContext, float | None],
                                          None]] = []
        self.node.bind_endpoint(self.ENDPOINT, self._on_message)

    @property
    def sim(self):
        return self.network.sim

    # -- server side -----------------------------------------------------------

    def register(self, object_key: str, port: ProvidedPort,
                 work_units: float = 1.0) -> None:
        """Expose a provided port under an object key (object adapter)."""
        if object_key in self.servants:
            raise MiddlewareError(
                f"orb on {self.node_name!r} already exports {object_key!r}"
            )
        self.servants[object_key] = _Servant(port, work_units)

    def unregister(self, object_key: str) -> None:
        if self.servants.pop(object_key, None) is None:
            raise MiddlewareError(
                f"orb on {self.node_name!r} does not export {object_key!r}"
            )

    def rebind(self, object_key: str, port: ProvidedPort,
               work_units: float = 1.0) -> None:
        """Atomically repoint an object key — middleware-level dynamic
        binding (in-flight requests complete against the old servant)."""
        if object_key not in self.servants:
            raise MiddlewareError(
                f"orb on {self.node_name!r} does not export {object_key!r}"
            )
        self.servants[object_key] = _Servant(port, work_units)

    # -- client side ------------------------------------------------------------

    def call(self, target_node: str, object_key: str, operation: str,
             *args: Any,
             on_result: Callable[[Any], None] | None = None,
             on_error: Callable[[Exception], None] | None = None,
             timeout: float | None = None,
             retries: int = 0,
             payload_size: int = 256) -> int:
        """Issue an asynchronous remote invocation; returns the request id."""
        context = RequestContext(
            request_id=next(_request_ids),
            object_key=object_key,
            operation=operation,
            args=args,
            source_node=self.node_name,
            target_node=target_node,
        )
        effective_timeout = timeout if timeout is not None else self.default_timeout
        context.deadline = self.sim.now + effective_timeout
        context.meta["payload_size"] = payload_size

        def transmit(ctx: RequestContext) -> None:
            self._transmit(ctx, on_result, on_error, effective_timeout, retries)

        run_chain(self.client_interceptors, context, transmit)
        return context.request_id

    def _transmit(self, context: RequestContext,
                  on_result: Callable[[Any], None] | None,
                  on_error: Callable[[Exception], None] | None,
                  timeout: float, retries: int) -> None:
        self.stats.requests_sent += 1
        self._notify_qos("sent", context, None)
        timer = Timer(self.sim, timeout, self._on_timeout, context.request_id)
        self.pending[context.request_id] = _Pending(
            context, on_result, on_error, timer, self.sim.now,
            retries_left=retries,
        )
        message = Message(
            source=self.node_name,
            destination=context.target_node,
            endpoint=self.ENDPOINT,
            payload=("request", context.object_key, context.operation,
                     context.args, dict(context.meta)),
            size=int(context.meta.get("payload_size", 256)),
        )
        message.headers["request_id"] = context.request_id
        message.headers["reply_endpoint"] = self.ENDPOINT
        self.network.send(message)

    def _on_timeout(self, request_id: int) -> None:
        pending = self.pending.pop(request_id, None)
        if pending is None:
            return
        if pending.retries_left > 0:
            self.stats.retries += 1
            context = pending.context
            timeout = (context.deadline or 0) - pending.sent_at
            context.deadline = self.sim.now + timeout
            self._transmit(context, pending.on_result, pending.on_error,
                           timeout, pending.retries_left - 1)
            return
        self.stats.timeouts += 1
        self._notify_qos("timeout", pending.context, None)
        if pending.on_error is not None:
            pending.on_error(OrbTimeoutError(
                f"request {request_id} ({pending.context.operation}) to "
                f"{pending.context.target_node!r} timed out"
            ))

    # -- message handling ----------------------------------------------------------

    def _on_message(self, node: Node, message: Message) -> None:
        kind = message.payload[0] if isinstance(message.payload, tuple) else None
        if kind == "request":
            self._serve(message)
        elif kind in ("response", "error"):
            self._resolve(message)

    def _serve(self, message: Message) -> None:
        _kind, object_key, operation, args, meta = message.payload
        context = RequestContext(
            request_id=message.headers.get("request_id", 0),
            object_key=object_key,
            operation=operation,
            args=args,
            source_node=message.source,
            target_node=self.node_name,
            meta=dict(meta),
        )

        def dispatch(ctx: RequestContext) -> None:
            servant = self.servants.get(ctx.object_key)
            if servant is None:
                self._reply(message, "error",
                            f"no object {ctx.object_key!r} on "
                            f"{self.node_name!r}")
                return
            # Charge CPU time on the hosting node before replying.
            delay = self.node.execution_time(servant.work_units)

            def finish() -> None:
                current = self.servants.get(ctx.object_key, servant)
                try:
                    invocation = Invocation(ctx.operation, tuple(ctx.args),
                                            caller=ctx.source_node)
                    invocation.meta.update(ctx.meta)
                    result = current.port.invoke(invocation)
                except Exception as exc:  # noqa: BLE001 - shipped to caller
                    self._reply(message, "error", repr(exc))
                    return
                self.stats.requests_served += 1
                self._reply(message, "response", result)

            self.sim.schedule(finish, delay=delay)

        run_chain(self.server_interceptors, context, dispatch)

    def _reply(self, request: Message, kind: str, body: Any) -> None:
        reply = request.reply_to(payload=(kind, body),
                                 size=int(request.headers.get("reply_size", 256)))
        self.network.send(reply)

    def _resolve(self, message: Message) -> None:
        request_id = message.headers.get("request_id")
        pending = self.pending.pop(request_id, None)
        if pending is None:
            return  # late reply after timeout: drop
        if pending.timer is not None:
            pending.timer.cancel()
        kind, body = message.payload
        latency = self.sim.now - pending.sent_at
        if kind == "response":
            self.stats.responses_received += 1
            self.stats.total_latency += latency
            self._notify_qos("response", pending.context, latency)
            if pending.on_result is not None:
                pending.on_result(body)
        else:
            self.stats.remote_errors += 1
            self._notify_qos("error", pending.context, latency)
            if pending.on_error is not None:
                pending.on_error(RequestError(str(body)))

    def _notify_qos(self, kind: str, context: RequestContext,
                    latency: float | None) -> None:
        for observer in list(self.qos_observers):
            observer(kind, context, latency)
