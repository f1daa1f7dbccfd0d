"""Byte-level subscription tree codecs and the tree store protocol.

The paper's prototype encodes subscription trees "on a byte level, e.g.,
to encode a Boolean operator we require one byte, also the number of
children for inner nodes is encoded by one byte.  Furthermore, the width
of children is stored using two bytes each and predicate identifiers
require four bytes." (§3.3)

:class:`BasicTreeCodec` reproduces that exact layout:

* a **leaf** is the 4-byte big-endian predicate identifier — nothing
  else.  Leaves are discriminated by width: the smallest possible
  operator encoding (a NOT above a leaf) occupies 8 bytes, so a child of
  width 4 is always a leaf;
* an **operator node** is ``opcode (1 byte) | child count (1 byte) |
  child widths (2 bytes each) | child encodings``.

:class:`VarintTreeCodec` is the "improved encoding" the paper defers to
future work (§5): a self-delimiting variable-length layout that drops the
fixed child widths entirely (ablation A2 quantifies the savings and the
evaluation cost of losing O(1) child skipping).

Evaluation runs **directly on the encoded bytes** — trees are never
materialized during matching, which is what makes the engine's working
set equal to the arena size.
"""

from __future__ import annotations

import abc
from typing import AbstractSet, Callable, Iterator

from .tree import NodeKind, SubscriptionTree, TreeNode

MAX_PREDICATE_ID = 0xFFFF_FFFF
MAX_CHILDREN = 0xFF
MAX_CHILD_WIDTH = 0xFFFF
_LEAF_WIDTH = 4


class EncodingError(ValueError):
    """Raised when a tree exceeds the codec's structural limits."""


class CorruptEncodingError(ValueError):
    """Raised when decoding meets bytes that are not a valid tree."""


class BasicTreeCodec:
    """The paper's fixed-width byte encoding (§3.3)."""

    name = "basic"

    def encode(self, tree: SubscriptionTree) -> bytes:
        """Serialize ``tree`` to its byte form."""
        return bytes(self._encode_node(tree.root))

    def _encode_node(self, node: TreeNode) -> bytearray:
        if node.kind is NodeKind.LEAF:
            if node.predicate_id > MAX_PREDICATE_ID:
                raise EncodingError(
                    f"predicate id {node.predicate_id} exceeds 4 bytes"
                )
            return bytearray(node.predicate_id.to_bytes(4, "big"))
        if len(node.children) > MAX_CHILDREN:
            raise EncodingError(
                f"operator has {len(node.children)} children; limit is {MAX_CHILDREN}"
            )
        encoded_children = [self._encode_node(c) for c in node.children]
        out = bytearray((int(node.kind), len(node.children)))
        for child in encoded_children:
            if len(child) > MAX_CHILD_WIDTH:
                raise EncodingError(f"child width {len(child)} exceeds 2 bytes")
            out += len(child).to_bytes(2, "big")
        for child in encoded_children:
            out += child
        return out

    def decode(
        self, buffer: bytes, offset: int = 0, width: int | None = None
    ) -> SubscriptionTree:
        """Deserialize the tree stored at ``buffer[offset:offset+width]``."""
        if width is None:
            width = len(buffer) - offset
        return SubscriptionTree(self._decode_node(memoryview(buffer), offset, width))

    def _decode_node(self, view: memoryview, offset: int, width: int) -> TreeNode:
        if width == _LEAF_WIDTH:
            pid = int.from_bytes(view[offset:offset + 4], "big")
            if pid == 0:
                raise CorruptEncodingError("predicate id 0 is reserved")
            return TreeNode(NodeKind.LEAF, predicate_id=pid)
        if width < 8:
            raise CorruptEncodingError(f"impossible node width {width}")
        try:
            kind = NodeKind(view[offset])
        except ValueError:
            raise CorruptEncodingError(
                f"unknown opcode {view[offset]} at offset {offset}"
            ) from None
        if kind is NodeKind.LEAF:
            raise CorruptEncodingError("LEAF opcode inside operator position")
        count = view[offset + 1]
        header = offset + 2
        widths = [
            int.from_bytes(view[header + 2 * i:header + 2 * i + 2], "big")
            for i in range(count)
        ]
        child_offset = header + 2 * count
        if sum(widths) + 2 + 2 * count != width:
            raise CorruptEncodingError(
                f"child widths {widths} inconsistent with node width {width}"
            )
        children = []
        for child_width in widths:
            children.append(self._decode_node(view, child_offset, child_width))
            child_offset += child_width
        return TreeNode(kind, children=tuple(children))

    def evaluate(
        self,
        buffer: bytes | bytearray | memoryview,
        offset: int,
        width: int,
        fulfilled_ids: AbstractSet[int],
    ) -> bool:
        """Evaluate the encoded tree without materializing nodes.

        Short-circuits: under AND the remaining children are *skipped*
        (their widths are known, so skipping is O(1) per child), likewise
        under OR after a fulfilled child.

        This is the hottest loop of the non-canonical engine (one call
        per candidate subscription per event), so it is hand-tuned:
        predicate ids are decoded with shifts instead of slicing, and a
        child that is itself a flat operator over leaves — recognizable
        from its width alone (``2 + 6n``) — is evaluated inline.  The
        paper's two-level workload trees (AND of binary ORs) therefore
        evaluate in a single call.
        """
        if width == _LEAF_WIDTH:
            pid = (
                (buffer[offset] << 24)
                | (buffer[offset + 1] << 16)
                | (buffer[offset + 2] << 8)
                | buffer[offset + 3]
            )
            return pid in fulfilled_ids
        opcode = buffer[offset]
        count = buffer[offset + 1]
        table = offset + 2                 # child width table
        child = table + 2 * count          # first child encoding
        if opcode == 3:  # NOT
            child_width = (buffer[table] << 8) | buffer[table + 1]
            return not self.evaluate(buffer, child, child_width, fulfilled_ids)
        want = opcode == 2  # OR short-circuits on a true child
        for _ in range(count):
            child_width = (buffer[table] << 8) | buffer[table + 1]
            table += 2
            if child_width == _LEAF_WIDTH:
                value = (
                    (buffer[child] << 24)
                    | (buffer[child + 1] << 16)
                    | (buffer[child + 2] << 8)
                    | buffer[child + 3]
                ) in fulfilled_ids
            else:
                inner_opcode = buffer[child]
                inner_count = buffer[child + 1]
                if child_width == 2 + 6 * inner_count and inner_opcode != 3:
                    # flat AND/OR over leaves: evaluate inline
                    inner_want = inner_opcode == 2
                    value = not inner_want
                    leaf = child + 2 + 2 * inner_count
                    for _ in range(inner_count):
                        if ((
                            (buffer[leaf] << 24)
                            | (buffer[leaf + 1] << 16)
                            | (buffer[leaf + 2] << 8)
                            | buffer[leaf + 3]
                        ) in fulfilled_ids) == inner_want:
                            value = inner_want
                            break
                        leaf += 4
                else:
                    value = self.evaluate(buffer, child, child_width, fulfilled_ids)
            if value == want:
                return want
            child += child_width
        return not want

    def predicate_ids(
        self, buffer: bytes | bytearray | memoryview, offset: int, width: int
    ) -> Iterator[int]:
        """Yield predicate ids straight from the encoded form.

        Used by unsubscription to clean the association table without
        decoding the whole tree into objects.
        """
        if width == _LEAF_WIDTH:
            yield int.from_bytes(buffer[offset:offset + 4], "big")
            return
        count = buffer[offset + 1]
        header = offset + 2
        child_offset = header + 2 * count
        for i in range(count):
            child_width = int.from_bytes(
                buffer[header + 2 * i:header + 2 * i + 2], "big"
            )
            yield from self.predicate_ids(buffer, child_offset, child_width)
            child_offset += child_width

    def encoded_size(self, tree: SubscriptionTree) -> int:
        """Size in bytes of the encoding, computed without serializing."""
        return self._size(tree.root)

    def _size(self, node: TreeNode) -> int:
        if node.kind is NodeKind.LEAF:
            return 4
        return 2 + 2 * len(node.children) + sum(self._size(c) for c in node.children)


def _encode_varint(value: int, out: bytearray) -> None:
    """LEB128 unsigned varint."""
    if value < 0:
        raise EncodingError("varints encode non-negative integers only")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _decode_varint(buffer, offset: int) -> tuple[int, int]:
    """Return (value, next_offset)."""
    result = 0
    shift = 0
    while True:
        try:
            byte = buffer[offset]
        except IndexError:
            raise CorruptEncodingError("truncated varint") from None
        result |= (byte & 0x7F) << shift
        offset += 1
        if not byte & 0x80:
            return result, offset
        shift += 7
        if shift > 63:
            raise CorruptEncodingError("varint too long")


class VarintTreeCodec:
    """Self-delimiting variable-length encoding (paper §5 "improved encoding").

    Layout: every node starts with a header varint ``h`` whose two low
    bits are the :class:`NodeKind`; for leaves ``h >> 2`` is the predicate
    id, for AND/OR it is the child count, for NOT it is zero.  Children
    follow immediately — no width table, so typical nodes shrink from
    ``2 + 2n`` header bytes to one or two, and small predicate ids cost
    one byte instead of four.  The trade-off: short-circuiting can no
    longer *skip* children in O(1); skipped children must still be parsed
    (ablation A2).
    """

    name = "varint"

    def encode(self, tree: SubscriptionTree) -> bytes:
        out = bytearray()
        self._encode_node(tree.root, out)
        return bytes(out)

    def _encode_node(self, node: TreeNode, out: bytearray) -> None:
        if node.kind is NodeKind.LEAF:
            _encode_varint((node.predicate_id << 2) | NodeKind.LEAF, out)
            return
        if node.kind is NodeKind.NOT:
            _encode_varint(NodeKind.NOT, out)
            self._encode_node(node.children[0], out)
            return
        _encode_varint((len(node.children) << 2) | int(node.kind), out)
        for child in node.children:
            self._encode_node(child, out)

    def decode(
        self, buffer: bytes, offset: int = 0, width: int | None = None
    ) -> SubscriptionTree:
        node, end = self._decode_node(buffer, offset)
        if width is not None and end - offset != width:
            raise CorruptEncodingError(
                f"decoded {end - offset} bytes, expected {width}"
            )
        return SubscriptionTree(node)

    def _decode_node(self, buffer, offset: int) -> tuple[TreeNode, int]:
        header, offset = _decode_varint(buffer, offset)
        kind = NodeKind(header & 3)
        payload = header >> 2
        if kind is NodeKind.LEAF:
            if payload == 0:
                raise CorruptEncodingError("predicate id 0 is reserved")
            return TreeNode(NodeKind.LEAF, predicate_id=payload), offset
        if kind is NodeKind.NOT:
            child, offset = self._decode_node(buffer, offset)
            return TreeNode(NodeKind.NOT, children=(child,)), offset
        children = []
        for _ in range(payload):
            child, offset = self._decode_node(buffer, offset)
            children.append(child)
        return TreeNode(kind, children=tuple(children)), offset

    def evaluate(
        self,
        buffer: bytes | bytearray | memoryview,
        offset: int,
        width: int,
        fulfilled_ids: AbstractSet[int],
    ) -> bool:
        """Evaluate directly on the bytes; ``width`` is accepted for
        interface parity with :class:`BasicTreeCodec` but not needed."""
        result, _ = self._evaluate(buffer, offset, fulfilled_ids)
        return result

    def _evaluate(self, buffer, offset: int, fulfilled_ids) -> tuple[bool, int]:
        header, offset = _decode_varint(buffer, offset)
        kind = header & 3
        payload = header >> 2
        if kind == NodeKind.LEAF:
            return payload in fulfilled_ids, offset
        if kind == NodeKind.NOT:
            result, offset = self._evaluate(buffer, offset, fulfilled_ids)
            return not result, offset
        want = kind == NodeKind.OR
        settled = False
        result = not want
        for _ in range(payload):
            if settled:
                offset = self._skip(buffer, offset)
                continue
            child_result, offset = self._evaluate(buffer, offset, fulfilled_ids)
            if child_result == want:
                result = want
                settled = True
        return result, offset

    def _skip(self, buffer, offset: int) -> int:
        header, offset = _decode_varint(buffer, offset)
        kind = header & 3
        payload = header >> 2
        if kind == NodeKind.LEAF:
            return offset
        if kind == NodeKind.NOT:
            return self._skip(buffer, offset)
        for _ in range(payload):
            offset = self._skip(buffer, offset)
        return offset

    def predicate_ids(
        self, buffer: bytes | bytearray | memoryview, offset: int, width: int
    ) -> Iterator[int]:
        """Yield predicate ids from the encoded form."""
        yield from self._ids(buffer, offset)[0]

    def _ids(self, buffer, offset: int) -> tuple[list[int], int]:
        header, offset = _decode_varint(buffer, offset)
        kind = header & 3
        payload = header >> 2
        if kind == NodeKind.LEAF:
            return [payload], offset
        if kind == NodeKind.NOT:
            return self._ids(buffer, offset)
        collected: list[int] = []
        for _ in range(payload):
            ids, offset = self._ids(buffer, offset)
            collected.extend(ids)
        return collected, offset

    def encoded_size(self, tree: SubscriptionTree) -> int:
        """Size in bytes of the encoding."""
        return len(self.encode(tree))


TreeCodec = BasicTreeCodec | VarintTreeCodec

CODECS: dict[str, Callable[[], TreeCodec]] = {
    "basic": BasicTreeCodec,
    "varint": VarintTreeCodec,
}


class TreeStore(abc.ABC):
    """Where encoded subscription trees live: the engine's store protocol.

    The engine's subscription location table maps ``id(s)`` to
    ``loc(s)`` — an ``(offset, width)`` pair into the store.  A store
    appends trees (:meth:`add`), hands one back for evaluation
    (:meth:`view`), marks freed trees dead (:meth:`free`) and, once dead
    bytes pass the compaction threshold (:meth:`needs_compaction`),
    rewrites itself without them (:meth:`compact`), returning the
    relocations the engine applies to its location table.

    This base keeps the bookkeeping every store shares — the live map
    and the dead-byte rule; a subclass says where the bytes live:
    :class:`TreeArena` in RAM, :class:`repro.core.paged.DiskTreeStore`
    in a file.
    """

    def __init__(self, *, compaction_threshold: float = 0.5) -> None:
        if not 0.0 < compaction_threshold <= 1.0:
            raise ValueError("compaction_threshold must be in (0, 1]")
        self._size = 0
        self._dead_bytes = 0
        self._live: dict[int, int] = {}  # offset -> width
        self._compaction_threshold = compaction_threshold

    @property
    def size(self) -> int:
        """Total store size in bytes, including dead regions."""
        return self._size

    @property
    def live_bytes(self) -> int:
        """Bytes occupied by live (not yet freed) trees."""
        return self._size - self._dead_bytes

    @property
    def dead_bytes(self) -> int:
        """Bytes occupied by freed trees awaiting compaction."""
        return self._dead_bytes

    def add(self, encoded: bytes) -> tuple[int, int]:
        """Append an encoded tree; return its ``(offset, width)`` location."""
        if not encoded:
            raise ValueError("cannot store an empty encoding")
        offset = self._size
        self._append(encoded)
        self._size += len(encoded)
        self._live[offset] = len(encoded)
        return offset, len(encoded)

    def free(self, offset: int, width: int) -> None:
        """Mark the tree at ``(offset, width)`` as dead."""
        stored = self._live.get(offset)
        if stored is None or stored != width:
            raise KeyError(f"no live tree at offset {offset} width {width}")
        del self._live[offset]
        self._dead_bytes += width

    def needs_compaction(self) -> bool:
        """Whether dead space exceeds the configured fraction of the store."""
        if not self._size:
            return False
        return self._dead_bytes / self._size > self._compaction_threshold

    def compact(self) -> dict[int, int]:
        """Rewrite the store without dead regions.

        Returns
        -------
        dict
            Mapping from old offset to new offset for every live tree;
            the caller (the engine) must rewrite its location table.
        """
        moves: list[tuple[int, int, int]] = []
        size = 0
        for offset in sorted(self._live):
            width = self._live[offset]
            moves.append((offset, size, width))
            size += width
        self._relocate(moves, size)
        self._live = {new: width for _, new, width in moves}
        self._size = size
        self._dead_bytes = 0
        return {old: new for old, new, _ in moves}

    @abc.abstractmethod
    def view(self, offset: int, width: int) -> tuple[bytes | bytearray, int]:
        """The tree at ``(offset, width)`` as a ``(buffer, start)`` pair.

        Codecs evaluate ``buffer[start:start + width]`` in place, so a
        store that holds its bytes in RAM hands out its own buffer
        without copying.
        """

    @abc.abstractmethod
    def _append(self, encoded: bytes) -> None:
        """Write ``encoded`` at offset :attr:`size`."""

    @abc.abstractmethod
    def _relocate(self, moves: list[tuple[int, int, int]], size: int) -> None:
        """Move each live ``(old, new, width)`` region (ascending, so
        ``new <= old``) and cut the store to ``size`` bytes."""


class TreeArena(TreeStore):
    """A contiguous in-RAM byte arena holding all encoded subscription trees.

    The non-canonical engine's default :class:`TreeStore`; :meth:`view`
    hands out the arena buffer itself.
    """

    def __init__(self, *, compaction_threshold: float = 0.5) -> None:
        super().__init__(compaction_threshold=compaction_threshold)
        self._buffer = bytearray()

    @property
    def buffer(self) -> bytearray:
        """The raw arena bytes (live and dead regions)."""
        return self._buffer

    def view(self, offset: int, width: int) -> tuple[bytearray, int]:
        return self._buffer, offset

    def _append(self, encoded: bytes) -> None:
        self._buffer += encoded

    def _relocate(self, moves: list[tuple[int, int, int]], size: int) -> None:
        buffer = self._buffer
        self._buffer = bytearray().join(
            buffer[old:old + width] for old, _, width in moves
        )
