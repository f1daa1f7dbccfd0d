"""Evaluation compiler: subscription trees → fast match forms.

The paper's C prototype evaluates encoded subscription trees directly;
there, "decoding" a node is pointer arithmetic and costs nothing beyond
the memory access.  A Python interpreter charges tens of bytecodes for
the same decoding, which would distort the engine comparison (the
counting baselines' hot loop is bytearray indexing, which Python executes
natively).  To keep per-access costs comparable across engines, the
non-canonical engine compiles each tree **once at registration time**
into one of three match forms evaluated with C-level set operations:

* ``MODE_ANY`` — a flat OR over predicates (or a single predicate):
  matches iff the fulfilled-id set intersects one frozenset;
* ``MODE_GROUPS`` — an AND of OR-groups (the paper's workload shape,
  and plain conjunctions as singleton groups): matches iff every group
  intersects the fulfilled set;
* ``MODE_DNF`` — an OR of conjunctions (already-DNF-shaped
  subscriptions): matches iff any group is a subset of the fulfilled
  set;
* ``MODE_CLOSURE`` — everything else (NOT nodes, deeper nesting):
  a composed closure tree.

The byte-encoded arena remains the system of record: it is what the
memory model charges (exactly the paper's §3.3 bytes) and what
unsubscription reads.  Ablation A1 benchmarks compiled against direct
encoded-tree evaluation.
"""

from __future__ import annotations

from typing import AbstractSet, Callable

from .tree import NodeKind, TreeNode

MODE_ANY = 0
MODE_GROUPS = 1
MODE_CLOSURE = 2
MODE_DNF = 3

#: (mode, payload) — payload type depends on the mode.
CompiledTree = tuple[int, object]


def compile_tree(root: TreeNode) -> CompiledTree:
    """Compile a subscription tree into its fastest match form."""
    flat = _flat_predicate_ids(root)
    if flat is not None and root.kind in (NodeKind.LEAF, NodeKind.OR):
        return (MODE_ANY, frozenset(flat))
    if root.kind is NodeKind.AND:
        groups = []
        for child in root.children:
            child_flat = _flat_predicate_ids(child)
            if child_flat is None or child.kind is NodeKind.AND:
                break
            groups.append(frozenset(child_flat))
        else:
            return (MODE_GROUPS, tuple(groups))
    if root.kind is NodeKind.OR:
        conjunctions = []
        for child in root.children:
            child_flat = _flat_predicate_ids(child)
            if child_flat is None or child.kind is NodeKind.OR:
                break
            conjunctions.append(frozenset(child_flat))
        else:
            return (MODE_DNF, tuple(conjunctions))
    return (MODE_CLOSURE, _closure(root))


def _flat_predicate_ids(node: TreeNode) -> list[int] | None:
    """Leaf ids when ``node`` is a leaf or an operator over leaves only."""
    if node.kind is NodeKind.LEAF:
        return [node.predicate_id]
    if node.kind is NodeKind.NOT:
        return None
    ids = []
    for child in node.children:
        if child.kind is not NodeKind.LEAF:
            return None
        ids.append(child.predicate_id)
    return ids


def _closure(node: TreeNode) -> Callable[[AbstractSet[int]], bool]:
    """A composed-callable evaluator for arbitrarily shaped trees."""
    if node.kind is NodeKind.LEAF:
        predicate_id = node.predicate_id
        return lambda fulfilled: predicate_id in fulfilled
    if node.kind is NodeKind.NOT:
        inner = _closure(node.children[0])
        return lambda fulfilled: not inner(fulfilled)
    flat = _flat_predicate_ids(node)
    if flat is not None:
        members = frozenset(flat)
        if node.kind is NodeKind.OR:
            return lambda fulfilled: not members.isdisjoint(fulfilled)
        return lambda fulfilled: members <= fulfilled
    children = tuple(_closure(child) for child in node.children)
    if node.kind is NodeKind.AND:
        return lambda fulfilled: all(child(fulfilled) for child in children)
    return lambda fulfilled: any(child(fulfilled) for child in children)
