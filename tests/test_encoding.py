"""Unit and property tests for the byte codecs and the tree arena."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.predicates import PredicateRegistry
from repro.subscriptions import (
    BasicTreeCodec,
    CorruptEncodingError,
    EncodingError,
    NodeKind,
    SubscriptionTree,
    TreeArena,
    TreeNode,
    VarintTreeCodec,
    parse,
)

from helpers import random_expressions

CODECS = [BasicTreeCodec(), VarintTreeCodec()]


def tree_of(text):
    registry = PredicateRegistry()
    return SubscriptionTree.from_expression(parse(text), registry.register)


def leaf_node(pid):
    return TreeNode(NodeKind.LEAF, predicate_id=pid)


class TestBasicCodecLayout:
    """The exact byte layout of paper §3.3."""

    def test_leaf_is_four_bytes(self):
        codec = BasicTreeCodec()
        encoded = codec.encode(SubscriptionTree(leaf_node(7)))
        assert encoded == (7).to_bytes(4, "big")

    def test_operator_node_layout(self):
        codec = BasicTreeCodec()
        tree = SubscriptionTree(
            TreeNode(NodeKind.AND, children=(leaf_node(1), leaf_node(2)))
        )
        encoded = codec.encode(tree)
        # opcode, child count, two 2-byte widths, two 4-byte ids
        assert len(encoded) == 1 + 1 + 2 * 2 + 2 * 4
        assert encoded[0] == NodeKind.AND
        assert encoded[1] == 2
        assert encoded[2:4] == (4).to_bytes(2, "big")

    def test_paper_costs_per_field(self):
        """1B operator + 1B count + 2B/child width + 4B/predicate id."""
        codec = BasicTreeCodec()
        tree = tree_of("(a > 10 or a <= 5 or b = 1) and (c <= 20 or c = 30 or d = 5)")
        # root: 2 + 2*2; per OR: 2 + 3*2; 6 leaves: 6*4
        expected = (2 + 2 * 2) + 2 * (2 + 3 * 2) + 6 * 4
        assert codec.encoded_size(tree) == len(codec.encode(tree)) == expected

    def test_predicate_id_width_limit(self):
        codec = BasicTreeCodec()
        with pytest.raises(EncodingError):
            codec.encode(SubscriptionTree(leaf_node(2 ** 32)))

    def test_children_count_limit(self):
        codec = BasicTreeCodec()
        children = tuple(leaf_node(i + 1) for i in range(256))
        tree = SubscriptionTree(TreeNode(NodeKind.AND, children=children))
        with pytest.raises(EncodingError):
            codec.encode(tree)


class TestCorruption:
    def test_basic_rejects_zero_predicate_id(self):
        with pytest.raises(CorruptEncodingError):
            BasicTreeCodec().decode(b"\x00\x00\x00\x00")

    def test_basic_rejects_impossible_width(self):
        with pytest.raises(CorruptEncodingError):
            BasicTreeCodec().decode(b"\x01\x02\x00\x04\x00")

    def test_basic_rejects_unknown_opcode(self):
        data = bytes([9, 2, 0, 4, 0, 4]) + (1).to_bytes(4, "big") * 2
        with pytest.raises(CorruptEncodingError):
            BasicTreeCodec().decode(data)

    def test_basic_rejects_inconsistent_widths(self):
        data = bytes([1, 2, 0, 4, 0, 8]) + (1).to_bytes(4, "big") * 2
        with pytest.raises(CorruptEncodingError):
            BasicTreeCodec().decode(data)

    def test_varint_rejects_truncated_input(self):
        codec = VarintTreeCodec()
        tree = tree_of("a = 1 and b = 2")
        encoded = codec.encode(tree)
        with pytest.raises(CorruptEncodingError):
            codec.decode(encoded[:-1])

    def test_varint_rejects_zero_predicate_id(self):
        with pytest.raises(CorruptEncodingError):
            VarintTreeCodec().decode(b"\x00")

    def test_varint_width_mismatch_detected(self):
        codec = VarintTreeCodec()
        encoded = codec.encode(tree_of("a = 1"))
        with pytest.raises(CorruptEncodingError):
            codec.decode(encoded + b"\x04", width=len(encoded) + 1)


@pytest.mark.parametrize("codec", CODECS, ids=lambda c: c.name)
class TestCodecBehaviour:
    def test_roundtrip_simple(self, codec):
        tree = tree_of("(a > 1 or b <= 2) and not c = 3")
        assert codec.decode(codec.encode(tree)) == tree

    def test_evaluate_without_decoding(self, codec):
        tree = tree_of("a = 1 and (b = 2 or c = 3)")
        encoded = codec.encode(tree)
        ids = sorted(tree.predicate_ids())
        assert codec.evaluate(encoded, 0, len(encoded), {ids[0], ids[1]})
        assert not codec.evaluate(encoded, 0, len(encoded), {ids[1]})

    def test_predicate_ids_from_bytes(self, codec):
        tree = tree_of("(a = 1 or b = 2) and a = 1")
        encoded = codec.encode(tree)
        from_bytes = sorted(codec.predicate_ids(encoded, 0, len(encoded)))
        assert from_bytes == sorted(tree.root.predicate_ids())

    def test_evaluate_at_offset(self, codec):
        tree = tree_of("a = 1 or b = 2")
        encoded = codec.encode(tree)
        buffer = b"\xff" * 3 + encoded
        assert codec.evaluate(buffer, 3, len(encoded), tree.predicate_ids())

    @given(random_expressions(), st.sets(st.integers(1, 6)))
    @settings(max_examples=80)
    def test_encoded_evaluation_matches_tree(self, codec, expression, fulfilled):
        registry = PredicateRegistry()
        tree = SubscriptionTree.from_expression(expression, registry.register)
        encoded = codec.encode(tree)
        assert codec.evaluate(encoded, 0, len(encoded), fulfilled) == (
            tree.evaluate(fulfilled)
        )

    @given(random_expressions())
    @settings(max_examples=80)
    def test_roundtrip_random_trees(self, codec, expression):
        registry = PredicateRegistry()
        tree = SubscriptionTree.from_expression(expression, registry.register)
        assert codec.decode(codec.encode(tree)) == tree


class TestVarintImprovement:
    def test_varint_is_smaller_on_paper_trees(self):
        """The §5 'improved encoding' claim, quantified."""
        basic, varint = BasicTreeCodec(), VarintTreeCodec()
        tree = tree_of(
            "(a > 10 or a <= 5 or b = 1) and (c <= 20 or c = 30 or d = 5)"
        )
        assert varint.encoded_size(tree) < basic.encoded_size(tree)

    def test_varint_large_ids_still_roundtrip(self):
        codec = VarintTreeCodec()
        tree = SubscriptionTree(
            TreeNode(NodeKind.OR, children=(leaf_node(2 ** 40), leaf_node(3)))
        )
        assert codec.decode(codec.encode(tree)) == tree


class TestTreeArena:
    def test_add_returns_location(self):
        arena = TreeArena()
        offset, width = arena.add(b"abcd")
        assert (offset, width) == (0, 4)
        offset, width = arena.add(b"efghij")
        assert (offset, width) == (4, 6)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            TreeArena().add(b"")

    def test_view_hands_out_the_buffer_without_copying(self):
        arena = TreeArena()
        arena.add(b"abcd")
        location = arena.add(b"efgh")
        buffer, start = arena.view(*location)
        assert buffer is arena.buffer
        assert bytes(buffer[start:start + 4]) == b"efgh"

    def test_live_and_dead_accounting(self):
        arena = TreeArena()
        loc1 = arena.add(b"aaaa")
        arena.add(b"bbbb")
        assert arena.live_bytes == 8
        arena.free(*loc1)
        assert arena.live_bytes == 4
        assert arena.dead_bytes == 4

    def test_free_unknown_raises(self):
        arena = TreeArena()
        arena.add(b"aaaa")
        with pytest.raises(KeyError):
            arena.free(1, 4)
        with pytest.raises(KeyError):
            arena.free(0, 3)

    def test_double_free_raises(self):
        arena = TreeArena()
        loc = arena.add(b"aaaa")
        arena.free(*loc)
        with pytest.raises(KeyError):
            arena.free(*loc)

    def test_compaction_threshold(self):
        arena = TreeArena(compaction_threshold=0.5)
        first = arena.add(b"a" * 10)
        arena.add(b"b" * 4)
        assert not arena.needs_compaction()
        arena.free(*first)
        assert arena.needs_compaction()

    def test_compact_relocates_and_preserves_content(self):
        arena = TreeArena()
        first = arena.add(b"aaaa")
        second = arena.add(b"bbbb")
        third = arena.add(b"cccc")
        arena.free(*second)
        relocations = arena.compact()
        assert arena.size == 8
        assert arena.dead_bytes == 0
        new_first = relocations[first[0]]
        new_third = relocations[third[0]]
        assert bytes(arena.buffer[new_first:new_first + 4]) == b"aaaa"
        assert bytes(arena.buffer[new_third:new_third + 4]) == b"cccc"

    def test_invalid_threshold_rejected(self):
        with pytest.raises(ValueError):
            TreeArena(compaction_threshold=0.0)
