"""Unit tests for meta-object chains."""

import pytest

from repro.errors import ChainOrderError, MetaObjectError
from repro.kernel import Invocation
from repro.metaobjects import MetaChain, MetaObject, order, validate

from tests.helpers import make_counter


def passthrough(name, **kwargs):
    return MetaObject(name, lambda inv, proceed: proceed(inv), **kwargs)


def tracing(name, log, **kwargs):
    def body(invocation, proceed):
        log.append(f"{name}-in")
        result = proceed(invocation)
        log.append(f"{name}-out")
        return result

    return MetaObject(name, body, **kwargs)


class TestValidate:
    def test_duplicate_names_rejected(self):
        with pytest.raises(MetaObjectError, match="duplicate"):
            validate([passthrough("a"), passthrough("a")])

    def test_missing_required_rejected(self):
        with pytest.raises(MetaObjectError, match="mandatory"):
            validate([passthrough("a")], required=["security"])

    def test_exclusive_group_conflict(self):
        with pytest.raises(MetaObjectError, match="exclusive group"):
            validate([
                passthrough("gzip", exclusive_group="compression"),
                passthrough("lz4", exclusive_group="compression"),
            ])

    def test_unknown_ordering_reference(self):
        with pytest.raises(ChainOrderError, match="unknown wrapper"):
            validate([passthrough("a", must_precede=frozenset({"ghost"}))])

    def test_self_ordering_rejected(self):
        with pytest.raises(MetaObjectError):
            passthrough("a", must_follow=frozenset({"a"}))


class TestOrder:
    def test_priority_orders_descending(self):
        ordered = order([
            passthrough("low", priority=1),
            passthrough("high", priority=10),
            passthrough("mid", priority=5),
        ])
        assert [m.name for m in ordered] == ["high", "mid", "low"]

    def test_constraints_override_priority(self):
        ordered = order([
            passthrough("auth", priority=0,
                         must_precede=frozenset({"logging"})),
            passthrough("logging", priority=100),
        ])
        assert [m.name for m in ordered] == ["auth", "logging"]

    def test_must_follow(self):
        ordered = order([
            passthrough("metrics", must_follow=frozenset({"auth"})),
            passthrough("auth"),
        ])
        assert [m.name for m in ordered] == ["auth", "metrics"]

    def test_cycle_detected(self):
        with pytest.raises(ChainOrderError, match="cycle"):
            order([
                passthrough("a", must_precede=frozenset({"b"})),
                passthrough("b", must_precede=frozenset({"a"})),
            ])

    def test_unordered_modificatory_pair_rejected(self):
        with pytest.raises(ChainOrderError, match="modificatory"):
            order([
                passthrough("rewrite1", modificatory=True),
                passthrough("rewrite2", modificatory=True),
            ])

    def test_modificatory_pair_ok_with_priorities(self):
        ordered = order([
            passthrough("rewrite1", modificatory=True, priority=2),
            passthrough("rewrite2", modificatory=True, priority=1),
        ])
        assert [m.name for m in ordered] == ["rewrite1", "rewrite2"]

    def test_modificatory_pair_ok_with_constraint(self):
        ordered = order([
            passthrough("rewrite1", modificatory=True,
                         must_precede=frozenset({"rewrite2"})),
            passthrough("rewrite2", modificatory=True),
        ])
        assert [m.name for m in ordered] == ["rewrite1", "rewrite2"]

    def test_strictness_can_be_relaxed(self):
        ordered = order(
            [passthrough("r1", modificatory=True),
             passthrough("r2", modificatory=True)],
            strict_modificatory=False,
        )
        assert len(ordered) == 2

    def test_transitive_ordering_satisfies_modificatory_rule(self):
        ordered = order([
            passthrough("r1", modificatory=True,
                        must_precede=frozenset({"mid"})),
            passthrough("mid", must_precede=frozenset({"r2"})),
            passthrough("r2", modificatory=True),
        ])
        assert [m.name for m in ordered] == ["r1", "mid", "r2"]


class TestMetaChain:
    def test_execution_order(self):
        log = []
        chain = MetaChain("c", [
            tracing("inner", log, priority=1),
            tracing("outer", log, priority=10),
        ])
        component = make_counter()
        component.provided_port("svc").add_interceptor(chain.interceptor())
        component.provided_port("svc").invoke(Invocation("total"))
        assert log == ["outer-in", "inner-in", "inner-out", "outer-out"]

    def test_conditional_metaobject_skipped(self):
        log = []
        chain = MetaChain("c", [
            tracing("picky", log,
                    condition=lambda inv: inv.operation == "increment"),
        ])
        component = make_counter()
        component.provided_port("svc").add_interceptor(chain.interceptor())
        component.provided_port("svc").invoke(Invocation("total"))
        assert log == []
        component.provided_port("svc").invoke(Invocation("increment", (1,)))
        assert log == ["picky-in", "picky-out"]

    def test_runtime_add_revalidates(self):
        chain = MetaChain("c", [passthrough("gzip", exclusive_group="comp")])
        with pytest.raises(MetaObjectError):
            chain.add(passthrough("lz4", exclusive_group="comp"))
        assert chain.order_names == ["gzip"]  # rollback kept the chain intact

    def test_runtime_add_reorders(self):
        chain = MetaChain("c", [passthrough("a", priority=1)])
        chain.add(passthrough("b", priority=5))
        assert chain.order_names == ["b", "a"]

    def test_remove_mandatory_rejected(self):
        chain = MetaChain("c", [passthrough("sec", mandatory=True)])
        with pytest.raises(MetaObjectError, match="mandatory"):
            chain.remove("sec")

    def test_remove_unknown_rejected(self):
        with pytest.raises(MetaObjectError):
            MetaChain("c").remove("ghost")

    def test_failed_remove_leaves_the_chain_as_it_was(self):
        log = []
        chain = MetaChain("c", [
            tracing("a", log, must_precede=frozenset({"b"})),
            tracing("b", log),
            tracing("c", log, priority=-1),
        ])
        component = make_counter()
        component.provided_port("svc").add_interceptor(chain.interceptor())
        with pytest.raises(ChainOrderError, match="unknown wrapper 'b'"):
            chain.remove("b")
        assert chain.order_names == ["a", "b", "c"]
        # The wrapper went back to its declared position, so a retry
        # fails the same way and the declaration order still breaks ties.
        with pytest.raises(ChainOrderError, match="unknown wrapper 'b'"):
            chain.remove("b")
        chain.remove("c")
        chain.add(tracing("d", log))
        assert chain.order_names == ["a", "b", "d"]
        component.provided_port("svc").invoke(Invocation("total"))
        assert log == ["a-in", "b-in", "d-in", "d-out", "b-out", "a-out"]

    def test_failed_add_keeps_the_declaration_order(self):
        first = passthrough("a")
        chain = MetaChain("c", [first, passthrough("b")])
        # An equal duplicate: the rollback must drop it, not ``first``.
        with pytest.raises(MetaObjectError, match="duplicate"):
            chain.add(MetaObject("a", first.behaviour))
        chain.add(passthrough("c"))
        assert chain.order_names == ["a", "b", "c"]

    def test_remove_then_len(self):
        chain = MetaChain("c", [passthrough("a"), passthrough("b")])
        chain.remove("a")
        assert len(chain) == 1

    def test_live_interceptor_sees_chain_updates(self):
        log = []
        chain = MetaChain("c", [tracing("a", log)])
        component = make_counter()
        component.provided_port("svc").add_interceptor(chain.interceptor())
        chain.add(tracing("b", log, priority=5))
        component.provided_port("svc").invoke(Invocation("total"))
        assert log == ["b-in", "a-in", "a-out", "b-out"]

    def test_fire_count_tracked(self):
        meta = passthrough("a")
        chain = MetaChain("c", [meta])
        component = make_counter()
        component.provided_port("svc").add_interceptor(chain.interceptor())
        component.provided_port("svc").invoke(Invocation("total"))
        assert meta.fire_count == 1


HASH_SEED_SCRIPT = """
from repro.errors import ChainOrderError
from repro.metaobjects import MetaObject, order

def meta(name, **constraints):
    return MetaObject(name, lambda inv, proceed: proceed(inv), **constraints)

for chain in (
        # Two cycles through a: a -> b -> a and a -> c -> a.
        [meta("a", must_precede={"b", "c"}), meta("b", must_precede={"a"}),
         meta("c", must_precede={"a"})],
        # Two unknown names on one wrapper, one known.
        [meta("a", must_follow={"z", "b", "y"}), meta("b")]):
    try:
        order(chain)
    except ChainOrderError as error:
        print(error)
"""


def test_errors_name_the_same_culprit_under_every_hash_seed():
    """Constraint sets are frozensets of strings, whose iteration order
    follows ``PYTHONHASHSEED``; the reported cycle and unknown name must
    not.  Each seed needs its own interpreter."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = Path(__file__).resolve().parents[2] / "src"
    outputs = set()
    for seed in range(1, 7):
        env = {**os.environ, "PYTHONPATH": str(src),
               "PYTHONHASHSEED": str(seed)}
        proc = subprocess.run([sys.executable, "-c", HASH_SEED_SCRIPT],
                              env=env, capture_output=True, text=True,
                              timeout=60)
        assert proc.returncode == 0, proc.stderr
        outputs.add(proc.stdout)
    assert outputs == {
        "ordering constraints form a cycle: a -> b -> a\n"
        "meta-object 'a' is ordered against unknown wrapper 'y'\n"}
