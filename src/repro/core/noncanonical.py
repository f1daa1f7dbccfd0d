"""The paper's contribution: the non-canonical filtering engine (§3).

Subscriptions are stored *as registered* — arbitrary Boolean expressions
compiled to compacted n-ary trees and kept in a tree store (a byte arena
in RAM; a file for the paged engine).  Matching an event involves the
four data structures of paper Fig. 2:

1. the one-dimensional **indexes** (shared phase 1) produce the set of
   fulfilled predicate ids ``{id(p)}``;
2. the **predicate subscription association table** maps each fulfilled
   predicate to the subscriptions referencing it, yielding the candidate
   set ``{id(s)}``;
3. the **subscription location table** maps each candidate to ``loc(s)``,
   the offset of its encoded tree in the store;
4. the candidate's **subscription tree** is evaluated directly on the
   encoded bytes with the fulfilled-id set as the truth assignment.

No transformation ever happens, so memory stays linear in the original
expression sizes, and phase-2 work is proportional to the *candidate*
count — not the registered subscription count.
"""

from __future__ import annotations

from typing import AbstractSet, Mapping

from ..indexes.manager import IndexManager
from ..memory.cost_model import DEFAULT_COST_MODEL, CostModel
from ..predicates.registry import PredicateRegistry
from ..subscriptions.compiler import (
    MODE_ANY,
    MODE_DNF,
    MODE_GROUPS,
    CompiledTree,
    compile_tree,
)
from ..subscriptions.encoding import (
    BasicTreeCodec,
    EncodingError,
    TreeArena,
    TreeStore,
    VarintTreeCodec,
)
from ..subscriptions.subscription import Subscription
from ..subscriptions.tree import SubscriptionTree
from .base import FilterEngine, UnknownSubscriptionError
from .bitset import FulfilledMatrix


class NonCanonicalEngine(FilterEngine):
    """Direct filtering of arbitrary Boolean subscriptions.

    Parameters
    ----------
    codec:
        ``"basic"`` (the paper's fixed-width §3.3 encoding, default) or
        ``"varint"`` (the §5 "improved encoding" future-work variant).
    evaluation:
        ``"compiled"`` (default): trees are compiled at registration into
        set-intersection match forms evaluated with C-level set
        operations, mirroring the per-access cost the paper's C prototype
        pays for encoded-tree traversal (see
        :mod:`repro.subscriptions.compiler`).  ``"encoded"``: evaluate
        the byte encoding directly (ablation A1).  Either way the tree
        store is maintained and is what the memory model charges.
    selectivity:
        Optional mapping ``predicate_id -> fulfilment probability``.
        When provided, registered trees are reordered for short-circuit
        evaluation (ablation A3).
    registry / indexes:
        See :class:`~repro.core.base.FilterEngine`.
    """

    name = "non-canonical"

    def __init__(
        self,
        *,
        codec: str = "basic",
        evaluation: str = "compiled",
        selectivity: Mapping[int, float] | None = None,
        registry: PredicateRegistry | None = None,
        indexes: IndexManager | None = None,
        cost_model: CostModel = DEFAULT_COST_MODEL,
    ) -> None:
        super().__init__(registry=registry, indexes=indexes)
        if codec == "basic":
            self._codec = BasicTreeCodec()
        elif codec == "varint":
            self._codec = VarintTreeCodec()
        else:
            raise ValueError(f"unknown codec {codec!r}; use 'basic' or 'varint'")
        if evaluation not in ("compiled", "encoded"):
            raise ValueError(
                f"unknown evaluation mode {evaluation!r}; "
                "use 'compiled' or 'encoded'"
            )
        self._evaluation = evaluation
        self._selectivity = dict(selectivity) if selectivity else None
        self._cost_model = cost_model
        #: where the encoded trees live (see TreeStore); every tree read
        #: goes through its view(), so the paged subclass swaps it alone
        self._store: TreeStore = TreeArena()
        #: predicate subscription association table: id(p) -> {id(s)}
        self._association: dict[int, set[int]] = {}
        #: subscription location table: id(s) -> loc(s) = (offset, width)
        self._locations: dict[int, tuple[int, int]] = {}
        #: id(s) -> compiled match form, read by the set path and the
        #: batch kernel alike (evaluation="compiled" only)
        self._compiled: dict[int, CompiledTree] = {}
        #: subscriptions that match under the *empty* truth assignment
        #: (NOT-rooted expressions): they can match events fulfilling
        #: none of their predicates, so candidate selection via the
        #: association table alone would miss them.
        self._empty_assignment_matchers: set[int] = set()

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def register(self, subscription: Subscription) -> None:
        """Compile, encode and index ``subscription`` — no transformation."""
        sid = subscription.subscription_id
        if sid in self._locations:
            raise ValueError(f"subscription id {sid} already registered")
        tree = SubscriptionTree.from_expression(
            subscription.expression, self._register_predicate
        )
        if self._selectivity is not None:
            tree = tree.reordered_by_selectivity(self._selectivity)
        try:
            encoded = self._codec.encode(tree)
        except EncodingError:
            # nothing references the tree yet: drop the one registry
            # reference per leaf that from_expression took
            for pid in tree.root.predicate_ids():
                self._release_predicate(pid)
            raise
        for pid in tree.predicate_ids():
            self._association.setdefault(pid, set()).add(sid)
        self._locations[sid] = self._store.add(encoded)
        if self._evaluation == "compiled":
            self._compiled[sid] = compile_tree(tree.root)
        if tree.evaluate(frozenset()):
            self._empty_assignment_matchers.add(sid)

    def unregister(self, subscription_id: int) -> None:
        """Remove a subscription and clean every table it touches.

        This is the operation the paper argues canonical engines handle
        poorly; here the encoded tree itself lists the predicate ids to
        clean up, so no table scan is needed (§3.2 footnote 1).
        """
        location = self._locations.pop(subscription_id, None)
        if location is None:
            raise UnknownSubscriptionError(subscription_id)
        offset, width = location
        buffer, start = self._store.view(offset, width)
        occurrences = list(self._codec.predicate_ids(buffer, start, width))
        self._store.free(offset, width)
        for pid in set(occurrences):
            referencing = self._association.get(pid)
            if referencing is not None:
                referencing.discard(subscription_id)
                if not referencing:
                    del self._association[pid]
        # The registry refcounts one reference per *occurrence* at
        # registration (register() was called once per leaf), so release
        # symmetrically.
        for pid in occurrences:
            self._release_predicate(pid)
        self._compiled.pop(subscription_id, None)
        self._empty_assignment_matchers.discard(subscription_id)
        if self._store.needs_compaction():
            relocations = self._store.compact()
            self._locations = {
                sid: (relocations[off], w)
                for sid, (off, w) in self._locations.items()
            }

    @property
    def subscription_count(self) -> int:
        return len(self._locations)

    def subscription_ids(self) -> frozenset[int]:
        return frozenset(self._locations)

    @property
    def store(self) -> TreeStore:
        """The tree store: the in-RAM arena, or the paged engine's file."""
        return self._store

    # ------------------------------------------------------------------
    # matching
    # ------------------------------------------------------------------
    def match_fulfilled(self, fulfilled_ids: AbstractSet[int]) -> set[int]:
        """Candidate selection + subscription tree evaluation (paper §3.2)."""
        return self._match_candidates(self.candidates_for(fulfilled_ids), fulfilled_ids)

    @property
    def has_matrix_kernel(self) -> bool:
        """The kernel evaluates the compiled forms, so the
        ``evaluation="encoded"`` ablation — and the paged engine — has
        none."""
        return self._evaluation == "compiled"

    def match_fulfilled_matrix(self, matrix: FulfilledMatrix) -> list[set[int]]:
        """Batch phase 2 on the bit kernel: one mask test per candidate.

        Candidate selection runs once over the batch's fulfilled ids;
        each candidate's compiled form is then evaluated in *event
        space* — a group of alternative predicates ORs its id columns,
        conjunction ANDs the group masks — so one pass over a
        candidate's compiled form answers "which events match it" for
        the whole batch (the per-event set-intersection probes collapse
        into word-wise mask-subset tests).  ``candidates_probed`` ticks
        once per candidate per *batch*; ``matches_found`` still counts
        (event, subscription) pairs, identical to the set paths.
        """
        if not self.has_matrix_kernel:
            return super().match_fulfilled_matrix(matrix)
        event_count = matrix.event_count
        if event_count == 0:
            return []
        all_events = matrix.all_events_mask
        columns = matrix.columns_to(self.indexes.width)
        association = self._association
        candidates: set[int] = set(self._empty_assignment_matchers)
        for pid in matrix.active_bits:
            referencing = association.get(pid)
            if referencing is not None:
                candidates |= referencing
        compiled = self._compiled
        results: list[set[int]] = [set() for _ in range(event_count)]
        id_sets: list[set[int]] | None = None
        matched_total = 0
        for sid in candidates:
            mode, payload = compiled[sid]
            if mode == MODE_GROUPS:
                hits = all_events
                for group in payload:
                    acc = 0
                    for pid in group:
                        acc |= columns[pid]
                    hits &= acc
                    if not hits:
                        break
            elif mode == MODE_ANY:
                hits = 0
                for pid in payload:
                    hits |= columns[pid]
            elif mode == MODE_DNF:
                hits = 0
                for group in payload:
                    acc = all_events
                    for pid in group:
                        acc &= columns[pid]
                        if not acc:
                            break
                    hits |= acc
                    if hits == all_events:
                        break
            else:  # closure: evaluate on per-event id sets (rare)
                if id_sets is None:
                    id_sets = matrix.to_id_sets()
                hits = 0
                rows = all_events
                while rows:
                    row = rows & -rows
                    if payload(id_sets[row.bit_length() - 1]):
                        hits |= row
                    rows ^= row
            if hits:
                matched_total += hits.bit_count()
                while hits:
                    low = hits & -hits
                    results[low.bit_length() - 1].add(sid)
                    hits ^= low
        counters = self._counters
        counters.phase2_calls += all_events.bit_count()
        counters.candidates_probed += len(candidates)
        counters.matches_found += matched_total
        return results

    def _match_candidates(
        self, candidates: AbstractSet[int], fulfilled_ids: AbstractSet[int]
    ) -> set[int]:
        """Evaluate each candidate's subscription tree on the assignment.

        This is where the set path's work counters tick: probes are
        candidate trees evaluated — the paper's key quantity.
        """
        counters = self._counters
        counters.phase2_calls += 1
        counters.candidates_probed += len(candidates)
        matched: set[int] = set()
        if self._evaluation == "compiled":
            compiled = self._compiled
            for sid in candidates:
                mode, payload = compiled[sid]
                if mode == MODE_GROUPS:
                    for group in payload:
                        if group.isdisjoint(fulfilled_ids):
                            break
                    else:
                        matched.add(sid)
                elif mode == MODE_ANY:
                    if not payload.isdisjoint(fulfilled_ids):
                        matched.add(sid)
                elif mode == MODE_DNF:
                    for group in payload:
                        if group <= fulfilled_ids:
                            matched.add(sid)
                            break
                elif payload(fulfilled_ids):
                    matched.add(sid)
            counters.matches_found += len(matched)
            return matched
        locations = self._locations
        view = self._store.view
        evaluate = self._codec.evaluate
        for sid in candidates:
            offset, width = locations[sid]
            buffer, start = view(offset, width)
            if evaluate(buffer, start, width, fulfilled_ids):
                matched.add(sid)
        counters.matches_found += len(matched)
        return matched

    def candidates_for(self, fulfilled_ids: AbstractSet[int]) -> set[int]:
        """The association join: candidate subscriptions for fulfilled ids.

        Every subscription referencing a fulfilled predicate is a
        candidate, and so is every subscription matching under the empty
        truth assignment.  The join walks its smaller side: normally the
        fulfilled ids, but when the table holds fewer associations than
        the event fulfilled predicates — the sharded runtime's small
        shards — the table itself.  Either walk produces the same
        candidate set; the small-table form is what keeps a pruned
        shard's probe cost proportional to the shard, not to the event.
        """
        association = self._association
        candidates: set[int] = set(self._empty_assignment_matchers)
        if len(association) < len(fulfilled_ids):
            for pid, referencing in association.items():
                if pid in fulfilled_ids:
                    candidates.update(referencing)
        else:
            for pid in fulfilled_ids:
                referencing = association.get(pid)
                if referencing is not None:
                    candidates.update(referencing)
        return candidates

    # ------------------------------------------------------------------
    # memory accounting
    # ------------------------------------------------------------------
    def memory_breakdown(self) -> Mapping[str, int]:
        """Bytes per structure under the paper's cost model.

        ``subscription_trees`` is the *live* store size — the actual
        encoded bytes, which is exactly what the paper's §3.3 prototype
        allocates.
        """
        model = self._cost_model
        reference_count = sum(len(s) for s in self._association.values())
        return {
            "subscription_trees": self._store.live_bytes,
            "association_table": model.association_table_bytes(
                len(self._association), reference_count
            ),
            "location_table": model.location_table_bytes(len(self._locations)),
        }
