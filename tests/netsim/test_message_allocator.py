"""Scoped message-id allocation (the fix for the process-global
``itertools.count``): ids come from an injectable allocator, so every
region — in any process, on any backend, after any replay — mints the
same ids for the same work."""

from repro.netsim import (
    Message,
    MessageIdAllocator,
    current_allocator,
    use_allocator,
)
from repro.parallel import MSG_ID_STRIDE


class TestMessageIdAllocator:
    def test_allocates_sequential_ids(self):
        allocator = MessageIdAllocator(100)
        assert [allocator.allocate() for _ in range(3)] == [100, 101, 102]

    def test_use_allocator_returns_previous(self):
        original = current_allocator()
        mine = MessageIdAllocator(1)
        try:
            previous = use_allocator(mine)
            assert previous is original
            assert current_allocator() is mine
        finally:
            use_allocator(original)
        assert current_allocator() is original

    def test_messages_draw_from_active_allocator(self):
        previous = use_allocator(MessageIdAllocator(7_000))
        try:
            first = Message(source="a", destination="b", endpoint="e")
            second = Message(source="a", destination="b", endpoint="e")
        finally:
            use_allocator(previous)
        assert (first.msg_id, second.msg_id) == (7_000, 7_001)

    def test_same_start_reproduces_ids(self):
        """The determinism contract: a replayed worker re-creates its
        allocator from the region number and mints identical ids."""

        def mint(n):
            previous = use_allocator(MessageIdAllocator(3 * MSG_ID_STRIDE + 1))
            try:
                return [Message(source="a", destination="b",
                                endpoint="e").msg_id for _ in range(n)]
            finally:
                use_allocator(previous)

        assert mint(5) == mint(5)

    def test_region_ranges_are_disjoint(self):
        """Per-region allocators seeded at region * MSG_ID_STRIDE never
        collide for any realistic message volume."""
        a = MessageIdAllocator(0 * MSG_ID_STRIDE + 1)
        b = MessageIdAllocator(1 * MSG_ID_STRIDE + 1)
        ids_a = {a.allocate() for _ in range(1000)}
        ids_b = {b.allocate() for _ in range(1000)}
        assert not ids_a & ids_b

