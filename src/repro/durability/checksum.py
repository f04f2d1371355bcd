"""Deterministic configuration checksums.

Crash recovery's acceptance rule is *no hybrids*: a recovered assembly
must equal the pre-reconfiguration configuration or the
post-reconfiguration configuration, bit for bit.  The witness is a
sha256 over a canonical document covering everything a reconfiguration
can touch — components (placement, lifecycle, state, ports), bindings,
and connector attachments.  Two assemblies built by the same
deterministic builder hash identically; any applied-but-uncommitted
change shows up as a different digest.

A reconfiguration touches few components, so the checksum memoizes each
component's encoded entry under an exact fingerprint (see
:func:`_fragment`); the hashed bytes stay those of
``canonical_json(assembly_document(assembly))``.
"""

from __future__ import annotations

import functools
import hashlib
import marshal
from typing import Any

from repro.durability.store import canonical_json
from repro.kernel.assembly import Assembly
from repro.kernel.component import Component

#: Fragments the memo keeps, least recently used evicted first.
_MEMO_SIZE = 1024
#: Longer fingerprints skip the memo, so large component states cannot
#: make it hold more than 1024 small entries.
_MEMO_KEY_BYTES = 2048


def _canon(value: Any) -> Any:
    """Reduce arbitrary component state to a deterministic JSON shape."""
    if isinstance(value, dict):
        return {str(key): _canon(val) for key, val in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canon(item) for item in value]
    if isinstance(value, (set, frozenset)):
        return sorted(str(item) for item in value)
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    # Arbitrary objects hash by type, not repr: reprs embed addresses.
    return f"<{type(value).__name__}>"


def _target_name(target: Any) -> str:
    qualified = getattr(target, "qualified_name", None)
    return qualified if qualified else f"<{type(target).__name__}>"


def _component_fields(component: Component) -> tuple:
    """What a component's document entry depends on, as the arguments of
    :func:`_component_entry`."""
    return (
        component.name,
        component.node_name,
        component.lifecycle.state.value,
        tuple(component.provided),
        tuple((name, _target_name(port.binding.target)
               if port.is_bound else None)
              for name, port in component.required.items()),
        component.state,
    )


def _component_entry(name: str, node: str | None, lifecycle: str,
                     provided: tuple, required: tuple,
                     state: Any) -> dict[str, Any]:
    return {
        "name": name,
        "node": node,
        "lifecycle": lifecycle,
        "state": _canon(state),
        "provided": sorted(provided),
        "required": dict(sorted(required)),
    }


def _by_name(assembly: Assembly) -> list[Component]:
    return sorted(assembly.registry, key=lambda c: c.name)


def _document(assembly: Assembly, components: list) -> dict[str, Any]:
    connectors = {}
    for name, connector in sorted(assembly.connectors.items()):
        connectors[name] = {
            "kind": connector.kind,
            "attachments": {
                role: sorted(_target_name(a.target) for a in attachments)
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


def assembly_document(assembly: Assembly) -> dict[str, Any]:
    """The canonical structure :func:`assembly_checksum` hashes."""
    return _document(assembly, [_component_entry(*_component_fields(c))
                                for c in _by_name(assembly)])


class _Ambiguous(Exception):
    """The fingerprint does not fix the fragment; see
    :func:`_memoized_fragment`."""


def _holds_bytes(value: Any) -> bool:
    if isinstance(value, bytes):
        return True
    if isinstance(value, dict):
        return _holds_bytes(tuple(value.items()))
    if isinstance(value, (list, tuple, set, frozenset)):
        return any(_holds_bytes(item) for item in value)
    return False


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _memoized_fragment(fingerprint: bytes) -> str:
    """The fragment of the fields ``fingerprint`` encodes.

    Computed from the decoded key, never from a live component, so it is
    a function of the key alone: a hit is never stale, and the memo holds
    no component.  ``marshal`` writes ``bytearray`` and ``memoryview`` as
    ``bytes`` too, so a key that decodes to bytes does not fix the type
    the state held; it raises :class:`_Ambiguous`, which is not cached.
    """
    fields = marshal.loads(fingerprint)
    fragment = canonical_json(_component_entry(*fields))
    # A bytes value leaves _canon's type tag in the fragment, or the start
    # of its str() as a dict key, set member or name; only then walk.
    if ("<bytes>" in fragment or "b'" in fragment or 'b\\"' in fragment) \
            and _holds_bytes(fields):
        raise _Ambiguous
    return fragment


def _fragment(component: Component) -> str:
    """``canonical_json`` of the component's document entry.

    The memo key is the fields' ``marshal`` form, version 2.  It is
    exact: marshal keeps the exact builtin type (``1``, ``True`` and
    ``1.0`` differ, as do lists and tuples) and raises ``ValueError`` for
    subclasses, enums, ``OrderedDict`` and other objects.  Unlike later
    versions, version 2 writes no back-references, whose presence
    depends on reference counts.  Fields marshal rejects, long keys and
    ambiguous keys take the direct path.
    """
    fields = _component_fields(component)
    try:
        fingerprint = marshal.dumps(fields, 2)
    except ValueError:
        fingerprint = None
    if fingerprint is not None and len(fingerprint) <= _MEMO_KEY_BYTES:
        try:
            return _memoized_fragment(fingerprint)
        except _Ambiguous:
            pass
    return canonical_json(_component_entry(*fields))


def assembly_checksum(assembly: Assembly) -> str:
    """Hex sha256 of ``canonical_json(assembly_document(assembly))``,
    encoded member by member as ``canonical_json`` encodes an object,
    with the components joined from memoized fragments."""
    members = {key: canonical_json(value)
               for key, value in _document(assembly, []).items()}
    members["components"] = (
        "[" + ",".join(_fragment(c) for c in _by_name(assembly)) + "]")
    payload = "{" + ",".join(f"{canonical_json(key)}:{members[key]}"
                             for key in sorted(members)) + "}"
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()
