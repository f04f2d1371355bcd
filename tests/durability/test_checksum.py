"""Deterministic configuration checksums."""

import enum
from collections import OrderedDict

from repro.durability import assembly_checksum, assembly_document

from tests.durability.helpers import (
    build_assembly,
    build_changes,
    post_checksum,
    pre_checksum,
)
from repro.reconfig import ReconfigurationTransaction


class Level(enum.IntEnum):
    HIGH = 3


class Label(str):
    pass


class Opaque:
    pass


def every_branch_state():
    """Component state that reaches every branch of the canonical form."""
    return {
        "keys": {
            "int": {1: "one", 2: "two"},
            "bool": {True: "yes", False: "no"},
            "none": {None: "nothing"},
            "tuple": {(1, "a"): "pair"},
        },
        "tuple": (1, "two", (3.5, None)),
        "set": {3, "b", 1.5},
        "frozenset": frozenset({"x", 2}),
        "float": 0.1,
        "negative_zero": -0.0,
        "enum": Level.HIGH,
        "label": Label("tag"),
        "ordered": OrderedDict([("z", 1), ("a", [True, None])]),
        "object": Opaque(),
    }


class TestGoldenChecksums:
    """The witness byte form is durable: recovery compares a rebuilt
    assembly with checksums journaled by an earlier build, so these
    values must never drift."""

    def test_pre_checksum(self):
        assert pre_checksum() == (
            "c477daf30cfa409dcb48bc2b488ff21bfc4fcc20b1d666d10489bb8f915dfbc1")

    def test_post_checksum(self):
        assert post_checksum() == (
            "7979c68b075214189353718cb453d7507b73541c7de4bcd145e96c3d93bce541")

    def test_every_canonical_branch(self):
        assembly = build_assembly()
        assembly.component("server").state = every_branch_state()
        expected = (
            "7751787b111176fea78b1c054667e484fd523b95d5de70d750b95dfeaaabbe06")
        assert assembly_checksum(assembly) == expected


class TestChecksum:
    def test_same_builder_same_checksum(self):
        assert assembly_checksum(build_assembly()) \
            == assembly_checksum(build_assembly())

    def test_checksum_is_hex_sha256(self):
        checksum = assembly_checksum(build_assembly())
        assert len(checksum) == 64
        int(checksum, 16)

    def test_reconfiguration_changes_the_checksum(self):
        assembly = build_assembly()
        before = assembly_checksum(assembly)
        txn = ReconfigurationTransaction(assembly)
        for change in build_changes(assembly):
            txn.add(change)
        txn.execute()
        assert assembly_checksum(assembly) != before

    def test_state_mutation_changes_the_checksum(self):
        assembly = build_assembly()
        before = assembly_checksum(assembly)
        assembly.component("server").state["total"] = 99
        assert assembly_checksum(assembly) != before


class TestDocument:
    def test_components_sorted_by_name(self):
        document = assembly_document(build_assembly())
        names = [entry["name"] for entry in document["components"]]
        assert names == sorted(names)
        assert names == ["client", "server"]

    def test_document_captures_placement_and_state(self):
        document = assembly_document(build_assembly())
        server = next(entry for entry in document["components"]
                      if entry["name"] == "server")
        assert server["node"] == "leaf1"
        assert server["state"]["total"] == 7

    def test_document_captures_bindings(self):
        document = assembly_document(build_assembly())
        assert document["bindings"]
        assert any("client" in line for line in document["bindings"])
