"""Kernel instrumentation: per-site stats, scheduling edges, timer ticks."""

import pytest

from repro.events import PeriodicTimer, Simulator
from repro.telemetry import EXTERNAL, install, site_name, uninstall
from repro.telemetry.hooks import KernelInstrumentation


def ping():
    pass


class TestSiteName:
    def test_function_uses_qualname(self):
        assert site_name(ping) == "ping"

    def test_periodic_timer_uses_its_label(self):
        sim = Simulator()
        timer = PeriodicTimer(sim, 1.0, ping, name="qos-monitor")
        assert site_name(timer._tick) == "qos-monitor"

    def test_periodic_timer_default_label_names_callback(self):
        sim = Simulator()
        timer = PeriodicTimer(sim, 1.0, ping)
        assert site_name(timer._tick) == "timer:ping"


class TestAggregation:
    def test_fire_schedule_cancel_counted_per_site(self):
        sim = Simulator()
        tracer = install(sim)
        sim.schedule(ping, delay=1.0)
        sim.schedule(ping, delay=2.0)
        doomed = sim.schedule(ping, delay=3.0)
        doomed.cancel()
        sim.run()
        stats = tracer.kernel.sites["ping"]
        assert stats.scheduled == 3
        assert stats.fired == 2
        assert stats.cancelled == 1
        assert stats.wall > 0.0
        assert tracer.kernel.events_seen == 2

    def test_scheduling_edges_attribute_scheduler_to_target(self):
        sim = Simulator()
        tracer = install(sim)

        def parent():
            sim.schedule(ping, delay=1.0)

        sim.schedule(parent, delay=1.0)
        sim.run()
        # Qualnames of nested functions carry the test scope; compare on
        # the leaf name.
        edges = {(src if src == EXTERNAL else src.rsplit(".", 1)[-1],
                  dst.rsplit(".", 1)[-1]): count
                 for src, dst, count in tracer.kernel.scheduling_profile()}
        assert edges == {(EXTERNAL, "parent"): 1, ("parent", "ping"): 1}

    def test_timer_ticks_counted_by_name(self):
        sim = Simulator()
        tracer = install(sim)
        timer = PeriodicTimer(sim, 1.0, ping, name="sampler")
        sim.run(until=3.5)
        timer.stop()
        assert tracer.kernel.timer_ticks["sampler"] == 3

    def test_hot_sites_ranked_by_wall(self):
        sim = Simulator()
        tracer = install(sim)

        def busy():
            sum(range(20_000))

        sim.schedule(busy, delay=1.0)
        sim.schedule(ping, delay=2.0)
        sim.run()
        names = [name for name, _ in tracer.kernel.hot_sites()]
        assert names[0].endswith("busy")

    def test_unknown_detail_rejected(self):
        with pytest.raises(ValueError):
            KernelInstrumentation(object(), detail="verbose")


class TestEventsDetail:
    def test_per_event_instants_with_scheduler_attribution(self):
        sim = Simulator()
        tracer = install(sim, kernel_detail="events")

        def parent():
            sim.schedule(ping, delay=1.0)

        sim.schedule(parent, delay=1.0)
        sim.run()
        kernel = [i for i in tracer.instants if i.category == "kernel"]
        assert [i.name.rsplit(".", 1)[-1] for i in kernel] == ["parent", "ping"]
        assert kernel[0].args["by"] == EXTERNAL
        assert kernel[1].args["by"].rsplit(".", 1)[-1] == "parent"

    def test_cancelled_events_leave_no_pending_attribution(self):
        sim = Simulator()
        tracer = install(sim, kernel_detail="events")
        sim.schedule(ping, delay=1.0).cancel()
        sim.run()
        assert tracer.kernel._scheduled_by == {}


class TestLifecycle:
    def test_install_wires_tracer_and_hooks(self):
        sim = Simulator()
        tracer = install(sim)
        assert sim.tracer is tracer
        assert sim.hooks is tracer.kernel

    def test_install_disabled_leaves_hot_loop_unhooked(self):
        sim = Simulator()
        tracer = install(sim, enabled=False)
        assert sim.tracer is tracer
        assert sim.hooks is None

    def test_disable_detaches_enable_reattaches(self):
        sim = Simulator()
        tracer = install(sim)
        tracer.disable()
        assert sim.hooks is None
        sim.schedule(ping, delay=1.0)
        sim.run()
        assert tracer.kernel.events_seen == 0
        tracer.enable()
        assert sim.hooks is tracer.kernel
        sim.schedule(ping, delay=1.0)
        sim.run()
        assert tracer.kernel.events_seen == 1

    @pytest.mark.parametrize("second", [{"enabled": False},
                                        {"kernel_detail": None}],
                             ids=["disabled", "no-kernel-hooks"])
    def test_reinstall_detaches_previous_kernel_hooks(self, second):
        sim = Simulator()
        first = install(sim)
        install(sim, **second)
        assert sim.hooks is None
        sim.schedule(ping, delay=1.0)
        sim.run()
        assert first.kernel.events_seen == 0

    def test_enable_keeps_hooks_of_the_newer_tracer(self):
        sim = Simulator()
        first = install(sim)
        second = install(sim)
        first.enable()
        assert sim.tracer is second
        assert sim.hooks is second.kernel
        sim.schedule(ping, delay=1.0)
        sim.run()
        assert second.kernel.events_seen == 1
        assert first.kernel.events_seen == 0

    def test_uninstall_removes_everything(self):
        sim = Simulator()
        install(sim)
        uninstall(sim)
        assert sim.tracer is None
        assert sim.hooks is None

    def test_deterministic_results_with_and_without_hooks(self):
        def drive(with_hooks):
            sim = Simulator()
            if with_hooks:
                install(sim)
            order = []
            sim.schedule_many(
                (1.0, order.append, (i,)) for i in range(50))
            sim.schedule(order.append, "early", delay=0.5)
            sim.run()
            return order, sim.now

        assert drive(False) == drive(True)
