"""Canonical (normal-form) transformations of Boolean subscriptions.

This module implements the *canonical pipeline* the paper argues against:
rewriting arbitrary Boolean subscriptions into disjunctive normal form
(DNF) so that each disjunct can be registered as a separate conjunctive
subscription with a counting-style engine.  It also provides
non-materializing clause counting (:func:`dnf_clause_count`).

Nothing here is memoized: the consumer that keeps a normal form derives
it (the counting and matching-tree engines in ``register``,
:func:`~repro.subscriptions.covering.covers` per call, the covering
index and the routed partitioner through
:func:`~repro.subscriptions.summary.summarize`), so a form lives exactly
as long as the structure holding it.

The blow-up is worst-case exponential: the paper's workload — an AND of
``k`` binary ORs over ``|p| = 2k`` predicates — expands into ``2**k``
clauses of ``k`` predicates each (``2**(|p|/2)`` clauses of ``|p|/2``
predicates, exactly the figures in paper §4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from ..predicates.predicate import Predicate
from .ast import And, BooleanExpression, Not, Or, PredicateLeaf


class DnfExplosionError(RuntimeError):
    """Raised when materializing a normal form would exceed the clause cap."""


@dataclass(frozen=True)
class Literal:
    """A possibly negated predicate occurrence inside a normal form.

    Negative literals only survive for predicates whose operators have no
    single-predicate complement (``BETWEEN``, ``IN``, string operators);
    comparisons are negated by flipping the operator during the NNF step.
    """

    predicate: Predicate
    positive: bool = True

    def evaluate(self, fulfilled: Callable[[Predicate], bool]) -> bool:
        """Truth of the literal given each predicate's truth."""
        value = fulfilled(self.predicate)
        return value if self.positive else not value

    def complement(self) -> "Literal":
        """The literal with opposite polarity."""
        return Literal(self.predicate, not self.positive)

    def __str__(self) -> str:
        return str(self.predicate) if self.positive else f"not ({self.predicate})"


class Clause:
    """A set of literals combined conjunctively (DNF) or disjunctively (CNF)."""

    __slots__ = ("literals",)

    def __init__(self, literals: Iterable[Literal]) -> None:
        self.literals = frozenset(literals)
        if not self.literals:
            raise ValueError("a clause must contain at least one literal")

    @property
    def is_contradictory(self) -> bool:
        """Whether the clause contains a literal and its complement."""
        return any(lit.complement() in self.literals for lit in self.literals)

    def predicates(self) -> set[Predicate]:
        """Distinct predicates referenced by this clause."""
        return {lit.predicate for lit in self.literals}

    def positive_predicates(self) -> set[Predicate]:
        """Predicates occurring positively."""
        return {lit.predicate for lit in self.literals if lit.positive}

    def has_negative_literals(self) -> bool:
        """Whether any literal is negated (unsupported by counting engines)."""
        return any(not lit.positive for lit in self.literals)

    def evaluate_conjunctive(self, fulfilled: Callable[[Predicate], bool]) -> bool:
        """Evaluate the clause as a conjunction (DNF semantics)."""
        return all(lit.evaluate(fulfilled) for lit in self.literals)

    def __len__(self) -> int:
        return len(self.literals)

    def __iter__(self) -> Iterator[Literal]:
        return iter(self.literals)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Clause) and self.literals == other.literals

    def __hash__(self) -> int:
        return hash(self.literals)

    def __repr__(self) -> str:
        return f"Clause({{{', '.join(sorted(str(l) for l in self.literals))}}})"


class DisjunctiveNormalForm:
    """A materialized DNF: an OR of conjunctive :class:`Clause` objects.

    This is the shape canonical engines consume — "these algorithms treat
    disjunctions as several subscriptions" (paper §2).
    """

    def __init__(self, clauses: Sequence[Clause]) -> None:
        if not clauses:
            raise ValueError("a DNF must contain at least one clause")
        self.clauses = tuple(clauses)

    def evaluate(self, fulfilled: Callable[[Predicate], bool]) -> bool:
        """True when any conjunctive clause is fully satisfied."""
        return any(c.evaluate_conjunctive(fulfilled) for c in self.clauses)

    def predicates(self) -> set[Predicate]:
        """Distinct predicates across all clauses."""
        result: set[Predicate] = set()
        for clause in self.clauses:
            result |= clause.predicates()
        return result

    def total_literal_count(self) -> int:
        """Sum of clause sizes — the post-transformation problem size."""
        return sum(len(c) for c in self.clauses)

    def absorbed(self) -> "DisjunctiveNormalForm":
        """Minimize by absorption: drop clauses that are supersets of others.

        ``(a) OR (a AND b)`` collapses to ``(a)``.  The paper notes current
        matching approaches "do not optimise subscriptions"; this optional
        step exists to quantify how little absorption helps on the paper's
        workload (all clauses are incomparable there).
        """
        kept: list[Clause] = []
        clauses = sorted(set(self.clauses), key=len)
        for clause in clauses:
            if any(k.literals <= clause.literals for k in kept):
                continue
            kept.append(clause)
        return DisjunctiveNormalForm(kept)

    def without_contradictions(self) -> "DisjunctiveNormalForm":
        """Drop clauses containing a literal and its complement."""
        kept = [c for c in self.clauses if not c.is_contradictory]
        if not kept:
            # The whole expression is unsatisfiable; keep one contradictory
            # clause so the DNF still evaluates (to False) instead of
            # becoming an invalid empty disjunction.
            kept = [self.clauses[0]]
        return DisjunctiveNormalForm(kept)

    def __len__(self) -> int:
        return len(self.clauses)

    def __iter__(self) -> Iterator[Clause]:
        return iter(self.clauses)

    def __repr__(self) -> str:
        return f"DisjunctiveNormalForm({len(self.clauses)} clauses)"


def to_nnf(
    expression: BooleanExpression, *, complement_operators: bool = False
) -> BooleanExpression:
    """Rewrite into negation normal form.

    NOT nodes are pushed to the leaves with De Morgan's laws.  What
    happens *at* a negated leaf is semantically loaded:

    * ``complement_operators=False`` (default, sound): the leaf keeps an
      explicit ``Not`` wrapper — a *negative literal*.  This preserves
      the system's truth semantics exactly: a predicate over an absent
      event attribute is unfulfilled, so its negation is true.
    * ``complement_operators=True``: comparison leaves are rewritten by
      flipping the operator (``NOT a > 5`` → ``a <= 5``), the classical
      database-style rewrite.  **Only equivalent when the attribute is
      guaranteed present** (schema-required attributes): for an event
      without ``a``, ``NOT a > 5`` is true but ``a <= 5`` is false.
      Operators without a complement keep the ``Not`` wrapper either way.
    """
    return _nnf(expression, negate=False, complement=complement_operators)


def _nnf(
    node: BooleanExpression, negate: bool, complement: bool = False
) -> BooleanExpression:
    if isinstance(node, PredicateLeaf):
        if not negate:
            return node
        if complement:
            try:
                return PredicateLeaf(node.predicate.negated())
            except ValueError:
                return Not(node)
        return Not(node)
    if isinstance(node, Not):
        return _nnf(node.child, not negate, complement)
    if isinstance(node, And):
        mapped = tuple(_nnf(child, negate, complement) for child in node.operands)
        return Or(mapped) if negate else And(mapped)
    if isinstance(node, Or):
        mapped = tuple(_nnf(child, negate, complement) for child in node.operands)
        return And(mapped) if negate else Or(mapped)
    raise TypeError(f"unexpected expression node {node!r}")


def _leaf_literal(node: BooleanExpression) -> Literal | None:
    """Extract the literal from an NNF leaf (plain or negated), else None."""
    if isinstance(node, PredicateLeaf):
        return Literal(node.predicate, positive=True)
    if isinstance(node, Not) and isinstance(node.child, PredicateLeaf):
        return Literal(node.child.predicate, positive=False)
    return None


def to_dnf(
    expression: BooleanExpression,
    *,
    max_clauses: int = 1_000_000,
    drop_contradictions: bool = True,
    complement_operators: bool = False,
) -> DisjunctiveNormalForm:
    """Transform an arbitrary Boolean expression into DNF.

    Parameters
    ----------
    expression:
        The subscription expression.
    max_clauses:
        Safety cap; materialization raising past it aborts with
        :class:`DnfExplosionError` (the blow-up is worst-case exponential).
    drop_contradictions:
        Remove clauses containing ``p AND NOT p``.
    complement_operators:
        Forwarded to :func:`to_nnf` — rewrite negated comparisons by
        operator flipping instead of keeping negative literals (only
        sound for schema-required attributes).

    Returns
    -------
    DisjunctiveNormalForm
    """
    nnf = to_nnf(expression, complement_operators=complement_operators)
    clauses = _dnf_clauses(nnf, max_clauses)
    dnf = DisjunctiveNormalForm([Clause(c) for c in clauses])
    if drop_contradictions:
        dnf = dnf.without_contradictions()
    return dnf


def _dnf_clauses(
    node: BooleanExpression, max_clauses: int
) -> list[frozenset[Literal]]:
    literal = _leaf_literal(node)
    if literal is not None:
        return [frozenset((literal,))]
    if isinstance(node, Or):
        collected: list[frozenset[Literal]] = []
        for child in node.operands:
            collected.extend(_dnf_clauses(child, max_clauses))
            if len(collected) > max_clauses:
                raise DnfExplosionError(
                    f"DNF exceeds {max_clauses} clauses during OR collection"
                )
        return collected
    if isinstance(node, And):
        product: list[frozenset[Literal]] = [frozenset()]
        for child in node.operands:
            child_clauses = _dnf_clauses(child, max_clauses)
            product = [
                existing | addition
                for existing in product
                for addition in child_clauses
            ]
            if len(product) > max_clauses:
                raise DnfExplosionError(
                    f"DNF exceeds {max_clauses} clauses during AND distribution"
                )
        return product
    raise TypeError(f"expression is not in NNF: {node!r}")


def clear_dnf_cache() -> None:
    """Do nothing: no memo of derived forms is left to clear.

    Kept only because ``perfbench/passes.py`` imports it; it goes with
    those calls.
    """


def dnf_clause_count(expression: BooleanExpression) -> int:
    """Number of DNF clauses *without* materializing the transformation.

    Computed on the NNF: a leaf contributes 1 clause, OR sums and AND
    multiplies.  This slightly over-counts when contradictions or
    duplicate clauses would collapse, which matches the cost a canonical
    engine actually pays (they do not minimize — paper §2.2).
    """
    return _count(to_nnf(expression))


def _count(node: BooleanExpression) -> int:
    if _leaf_literal(node) is not None:
        return 1
    if isinstance(node, Or):
        return sum(_count(child) for child in node.operands)
    if isinstance(node, And):
        return math.prod(_count(child) for child in node.operands)
    raise TypeError(f"expression is not in NNF: {node!r}")
