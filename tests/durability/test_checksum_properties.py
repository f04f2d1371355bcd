"""The memoized assembly checksum equals the straight encoding.

``assembly_checksum`` joins per-component fragments from a memo keyed by
an exact fingerprint.  The reference below is the encoding it replaced,
kept verbatim: ``_canon`` and ``assembly_document`` as they were, and
one ``json.dumps`` over the whole document.

Generated states cover every ``_canon`` branch, including values the
fingerprint cannot key (subclasses, enums, ``OrderedDict``, plain
objects) or cannot tell apart by itself (``bytes``, ``bytearray`` and
``memoryview``).
Between checksums the components are mutated in place.  The type-only
flips are the dangerous ones: ``1``, ``True`` and ``1.0`` are equal and
hash alike but encode differently, so a memo keyed on ``==`` or ``hash``
would return a stale fragment.
"""

import enum
import hashlib
import json
from collections import OrderedDict

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.durability import assembly_checksum
from repro.events import Simulator
from repro.kernel import Assembly
from repro.netsim import star
from repro.reconfig import RewireBinding
from repro.reconfig.migration import MigrateComponent

from tests.durability.helpers import fresh_client, fresh_counter


# -- the reference encoding ---------------------------------------------------

def reference_canon(value):
    if isinstance(value, dict):
        return {str(key): reference_canon(val) for key, val in value.items()}
    if isinstance(value, (list, tuple)):
        return [reference_canon(item) for item in value]
    if isinstance(value, (set, frozenset)):
        return sorted(str(item) for item in value)
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return f"<{type(value).__name__}>"


def reference_target_name(target):
    qualified = getattr(target, "qualified_name", None)
    return qualified if qualified else f"<{type(target).__name__}>"


def reference_document(assembly):
    components = []
    for component in sorted(assembly.registry, key=lambda c: c.name):
        components.append({
            "name": component.name,
            "node": component.node_name,
            "lifecycle": component.lifecycle.state.value,
            "state": reference_canon(component.state),
            "provided": sorted(component.provided),
            "required": {
                name: (reference_target_name(port.binding.target)
                       if port.is_bound else None)
                for name, port in sorted(component.required.items())
            },
        })
    connectors = {}
    for name, connector in sorted(assembly.connectors.items()):
        connectors[name] = {
            "kind": connector.kind,
            "attachments": {
                role: sorted(reference_target_name(a.target)
                             for a in attachments)
                for role, attachments in sorted(
                    connector.attachments.items())
            },
        }
    return {
        "name": assembly.name,
        "components": components,
        "bindings": sorted(binding.describe() for binding in assembly.bindings),
        "connectors": connectors,
    }


def reference_fallback(value):
    if isinstance(value, (set, frozenset)):
        return sorted(str(v) for v in value)
    if isinstance(value, tuple):
        return list(value)
    return str(value)


def reference_checksum(assembly):
    payload = json.dumps(reference_document(assembly), sort_keys=True,
                         separators=(",", ":"), default=reference_fallback)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# -- generated states ---------------------------------------------------------

class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


class Label(str):
    pass


class Opaque:
    pass


hashables = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 2), st.floats(),
    st.text("ab1'\"", max_size=3), st.binary(max_size=2),
    st.binary(max_size=2).map(memoryview),
    st.sampled_from(Level), st.text("ab", max_size=2).map(Label),
    st.tuples(st.integers(-2, 2), st.text("ab", max_size=1)),
)
scalars = st.one_of(
    hashables, st.binary(max_size=2).map(bytearray), st.builds(Opaque),
)


def containers(children):
    dicts = st.dictionaries(hashables, children, max_size=3)
    return st.one_of(
        st.lists(children, max_size=3),
        st.lists(children, max_size=3).map(tuple),
        dicts,
        dicts.map(OrderedDict),
        st.sets(hashables, max_size=3),
        st.frozensets(hashables, max_size=3),
    )


values = st.recursive(scalars, containers, max_leaves=8)
states = st.dictionaries(st.text("abk", min_size=1, max_size=2), values,
                         max_size=3)

#: In-place mutations: (kind, component index, argument).
MUTATIONS = ("number", "sequence", "key", "buffer", "grow", "rebind",
             "lifecycle", "move")
mutations = st.lists(
    st.tuples(st.sampled_from(MUTATIONS), st.integers(0, 2),
              st.integers(0, 2)),
    max_size=6)

#: 1 → True → 1.0 → 1: equal under ``==`` and ``hash``, encoded apart.
NEXT_NUMBER = {int: True, bool: 1.0, float: 1}


def build(component_states):
    """Two servers and a client bound to the first, on a 3-leaf star."""
    assembly = Assembly(star(Simulator(), leaves=3))
    components = [fresh_counter("s0"), fresh_counter("s1"), fresh_client("c")]
    for index, (component, state) in enumerate(
            zip(components, component_states)):
        component.state = state
        assembly.deploy(component, f"leaf{index}")
    assembly.connect("c", "peer", target_component="s0")
    return assembly, components


def mutate(assembly, component, kind, arg):
    state = component.state
    if kind == "number":
        holder = state if arg == 0 else state.setdefault("nest", {})
        holder["n"] = NEXT_NUMBER.get(type(holder.get("n")), 1)
    elif kind == "sequence":
        seq = state.get("seq")
        state["seq"] = tuple(seq) if isinstance(seq, list) else (
            list(seq) if isinstance(seq, tuple) else [1, 2])
    elif kind == "key":
        state["keyed"] = ({"1": "v"} if state.get("keyed") == {1: "v"}
                          else {1: "v"})
    elif kind == "buffer":
        buf = state.get("buf")
        state["buf"] = bytearray(buf) if type(buf) is bytes else (
            bytes(buf) if isinstance(buf, bytearray) else b"x")
    elif kind == "grow":
        state["big"] = list(range(1000 + arg))
    elif kind == "rebind":
        RewireBinding("c", "peer", target_component=f"s{arg % 2}").apply(
            assembly)
    elif kind == "lifecycle":
        if component.lifecycle.can_serve:
            component.passivate()
        else:
            component.activate()
    elif kind == "move" and component.node_name != f"leaf{arg}":
        MigrateComponent(component.name, f"leaf{arg}").apply(assembly)


@settings(max_examples=80, deadline=None)
@given(st.lists(states, min_size=3, max_size=3), mutations)
@example([{}, {}, {}], [("number", 0, 0)] * 4)
@example([{}, {}, {}], [("number", 1, 1)] * 4)
@example([{}, {}, {}], [("sequence", 0, 0)] * 3)
@example([{}, {}, {}], [("key", 2, 0)] * 3)
@example([{}, {}, {}], [("buffer", 0, 0)] * 3)
@example([{"a": {memoryview(b"x"): 1}}, {}, {}], [])
@example([{}, {}, {}], [("grow", 0, 0), ("grow", 0, 1), ("number", 0, 0)])
def test_memoized_checksum_equals_reference(component_states, changes):
    assembly, components = build(component_states)
    assert assembly_checksum(assembly) == reference_checksum(assembly)
    for kind, index, arg in changes:
        mutate(assembly, components[index], kind, arg)
        assert assembly_checksum(assembly) == reference_checksum(assembly)
