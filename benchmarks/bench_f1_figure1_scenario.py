"""F1 — the paper's Figure 1, measured.

"Connector based reconfiguration and adaptation": serving components
attached to a connector, introspection streams up to RAML, intercession
arrows back down.  The scenario drives a fault through the figure's
loop and verifies every arrow fired, then reports the meta-level's
reaction timeline.

Series: time from fault to (a) first introspection evidence, (b) the
lightweight adaptation, (c) the intercession swap, and (d) full service
recovery; plus availability during the episode.  Expected shape: the
pipeline reacts within a handful of sweep periods and availability stays
above 50% during the fault window thanks to retries.
"""

import pytest

from repro import Simulator, star, telemetry
from repro.connectors import RpcConnector
from repro.core import Raml, Response, custom
from repro.events import PeriodicTimer
from repro.kernel import Assembly, Component, Interface, Operation

from conftest import fmt, print_table

FAULT_AT = 2.0
SWEEP = 0.25


def media_interface():
    return Interface("Media", "1.0", [Operation("render", ("frame",))])


class Serving(Component):
    def on_initialize(self):
        self.state.setdefault("rendered", 0)
        self.state.setdefault("degraded", False)

    def render(self, frame):
        if self.state["degraded"]:
            raise RuntimeError("wedged")
        self.state["rendered"] += 1
        return frame


def run_figure1(sample_rate=None, seed=0, kernel_detail=None) -> dict:
    """Drive the Figure-1 loop; optionally under telemetry.

    ``sample_rate`` (with its sampling ``seed``) and/or ``kernel_detail``
    install the tracer before the run — this is how the CI
    trace-artifact exporter reuses the scenario — and the tracer comes
    back in the result under ``"tracer"``.
    """
    sim = Simulator()
    tracer = None
    if sample_rate is not None or kernel_detail is not None:
        tracer = telemetry.install(
            sim, sample_rate=1.0 if sample_rate is None else sample_rate,
            seed=seed, kernel_detail=kernel_detail)
    assembly = Assembly(star(sim, leaves=3))
    serving_a = Serving("serving-a")
    serving_a.provide("svc", media_interface())
    assembly.deploy(serving_a, "leaf0")
    serving_b = Serving("serving-b")
    serving_b.provide("svc", media_interface())
    assembly.deploy(serving_b, "leaf1")
    connector = RpcConnector("media", media_interface())
    connector.attach("server", serving_a.provided_port("svc"))
    assembly.add_connector(connector)
    client = Component("client")
    client.require("media", media_interface())
    assembly.deploy(client, "leaf2")
    assembly.connect("client", "media", target=connector.endpoint("client"))
    if tracer is not None:
        telemetry.instrument_assembly(tracer, assembly)

    raml = Raml(assembly, period=SWEEP, metric_window=1.0).instrument()
    timeline: dict[str, float] = {}

    def stream(event):
        if (event.source.startswith("connector:")
                and event.kind == "error"):
            timeline.setdefault("first_evidence", sim.now)
            raml.record_metric("errors", 1.0)

    raml.hub.subscribe(stream)

    def too_many_errors(view):
        if "errors" not in view.metrics:
            return []
        series = view.metrics.series("errors")
        return ["error burst"] if series.count > 2 else []

    def adapt(raml_, violations):
        if connector.retries == 0:
            connector.retries = 2
            timeline.setdefault("adaptation", sim.now)

    def intercede(raml_, violations):
        active = connector.attachments["server"][0].target
        standby = (serving_b if active.component is serving_a
                   else serving_a).provided_port("svc")
        raml_.intercessor.swap_connector_attachment("media", "server",
                                                    active, standby)
        raml_.metrics.series("errors").reset()
        timeline.setdefault("intercession", sim.now)

    raml.add_constraint(custom("error-rate", too_many_errors),
                        Response(adapt=adapt, reconfigure=intercede,
                                 escalate_after=2))
    raml.start()

    window = {"ok": 0, "failed": 0}

    def call():
        try:
            client.required_port("media").call("render", "f")
            window["ok"] += 1
            if (serving_b.state["rendered"] > 0
                    and "recovered" not in timeline):
                timeline["recovered"] = sim.now
        except RuntimeError:
            window["failed"] += 1

    traffic = PeriodicTimer(sim, 0.05, call)
    sim.at(lambda: serving_a.state.__setitem__("degraded", True), when=FAULT_AT)
    sim.run(until=6.0)
    traffic.stop()
    raml.stop()

    total = window["ok"] + window["failed"]
    return {
        "timeline": timeline,
        "availability": window["ok"] / total if total else 0.0,
        "rendered_by_standby": serving_b.state["rendered"],
        "events_observed": len(raml.hub.events),
        "health": raml.health(),
        "tracer": tracer,
    }


def test_f1_figure1_loop(benchmark):
    result = benchmark.pedantic(run_figure1, rounds=1, iterations=1)
    timeline = result["timeline"]

    rows = [
        [arrow, fmt(timeline[arrow] - FAULT_AT, 3) + "s"]
        for arrow in ("first_evidence", "adaptation", "intercession",
                      "recovered")
        if arrow in timeline
    ]
    rows.append(["availability", fmt(result["availability"] * 100, 1) + "%"])
    rows.append(["introspection events", result["events_observed"]])
    print_table("F1 figure-1 loop: delay after fault", ["arrow", "value"],
                rows)

    # Every arrow of the figure fired, in order.
    for arrow in ("first_evidence", "adaptation", "intercession",
                  "recovered"):
        assert arrow in timeline, f"figure arrow {arrow!r} never fired"
    assert (timeline["first_evidence"] <= timeline["adaptation"]
            <= timeline["intercession"] <= timeline["recovered"])
    # The loop closes within a handful of sweep periods.
    assert timeline["recovered"] - FAULT_AT <= 6 * SWEEP
    # Availability over the whole run stays high.
    assert result["availability"] > 0.5
    assert result["rendered_by_standby"] > 0
    assert result["health"]["reconfigurations"] >= 1
    # The exact witness: the scenario is deterministic, so any change to
    # what RAML observes or when it reacts moves one of these values.
    delays = {arrow: at - FAULT_AT for arrow, at in timeline.items()}
    assert delays == pytest.approx({"first_evidence": 0.0, "adaptation": 0.25,
                                    "intercession": 0.50, "recovered": 0.55},
                                   abs=1e-9)
    assert result["availability"] == pytest.approx(109 / 120, abs=1e-9)
    assert result["events_observed"] == 624
    health = result["health"]
    assert (health["sweeps"], health["adaptations"],
            health["reconfigurations"]) == (24, 2, 1)
