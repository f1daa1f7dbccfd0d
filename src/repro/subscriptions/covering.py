"""Subscription covering: does one subscription subsume another?

Subscription ``s1`` *covers* ``s2`` when every event matching ``s2`` also
matches ``s1``.  Covering is the workhorse of routing-table compaction in
distributed pub/sub (Mühl & Fiege [14], which the paper cites): a broker
that already forwards events for ``s1`` need not register a covered
``s2`` on intermediate hops.

Deciding implication between arbitrary Boolean expressions is co-NP-hard
in general; this module implements the standard *sound but incomplete*
layered test:

1. **predicate level** — :func:`predicate_covers` decides implication
   between two attribute-operator-value predicates exactly (same
   attribute, comparable operator pairs);
2. **conjunction level** — a conjunction ``c1`` covers ``c2`` iff every
   predicate of ``c1`` is covered by some predicate of ``c2``;
3. **expression level** — :func:`covers` puts both expressions into DNF
   and requires every clause of the covered expression to be covered by
   some clause of the coverer.

A ``True`` answer is always correct; ``False`` may be a false negative
(the optimization is then merely skipped, never wrong).
"""

from __future__ import annotations

from ..predicates.operators import Operator
from ..predicates.predicate import Predicate
from .ast import BooleanExpression
from .normal_forms import (
    Clause,
    DisjunctiveNormalForm,
    DnfExplosionError,
    to_dnf,
)


def _is_nan(value) -> bool:
    """NaN is the one value unequal to itself."""
    return value != value


def _bounds(predicate: Predicate):
    """Normalize a numeric predicate to an interval (low, high, incl, inch).

    Returns ``None`` for non-interval predicates, and for a NaN bound:
    NaN compares false both ways, so a NaN interval would seem to
    contain any bounded one.  Open endpoints are ``None``.
    """
    op, value = predicate.operator, predicate.value
    if op is Operator.BETWEEN:
        if _is_nan(value[0]) or _is_nan(value[1]):
            return None
        return (value[0], value[1], True, True)
    if _is_nan(value):
        return None
    if op is Operator.LT:
        return (None, value, False, False)
    if op is Operator.LE:
        return (None, value, False, True)
    if op is Operator.GT:
        return (value, None, False, False)
    if op is Operator.GE:
        return (value, None, True, False)
    if op is Operator.EQ and not isinstance(value, bool):
        return (value, value, True, True)
    return None


def _interval_contains(outer, inner) -> bool:
    """Whether the outer interval contains the inner one."""
    o_low, o_high, o_incl, o_inch = outer
    i_low, i_high, i_incl, i_inch = inner
    if o_low is not None:
        if i_low is None:
            return False
        if i_low < o_low:
            return False
        if i_low == o_low and i_incl and not o_incl:
            return False
    if o_high is not None:
        if i_high is None:
            return False
        if i_high > o_high:
            return False
        if i_high == o_high and i_inch and not o_inch:
            return False
    return True


def predicate_covers(coverer: Predicate, covered: Predicate) -> bool:
    """Exact implication between two predicates: ``covered ⇒ coverer``.

    Examples
    --------
    >>> predicate_covers(Predicate("a", Operator.GE, 5),
    ...                  Predicate("a", Operator.GT, 7))
    True
    >>> predicate_covers(Predicate("s", Operator.PREFIX, "ab"),
    ...                  Predicate("s", Operator.PREFIX, "abc"))
    True
    """
    if coverer == covered:
        return True
    if coverer.attribute != covered.attribute:
        return False
    c_op, c_val = coverer.operator, coverer.value
    d_op, d_val = covered.operator, covered.value
    # EXISTS covers anything on the same attribute (all predicates
    # require the attribute to be present)
    if c_op is Operator.EXISTS:
        return True
    # interval containment covers all comparison pairs
    outer, inner = _bounds(coverer), _bounds(covered)
    if outer is not None and inner is not None:
        try:
            return _interval_contains(outer, inner)
        except TypeError:
            return False
    if c_op is Operator.IN:
        if d_op is Operator.EQ:
            return d_val in c_val
        if d_op is Operator.IN:
            return d_val <= c_val
        return False
    if c_op is Operator.EQ and d_op is Operator.IN:
        return c_val == frozenset(d_val) or d_val == frozenset((c_val,))
    if c_op is Operator.NE:
        if d_op is Operator.NE:
            return c_val == d_val
        if d_op is Operator.EQ:
            # a = d implies a != c only within one equality domain
            # (bool and int are distinct domains in this system)
            same_domain = isinstance(c_val, bool) == isinstance(d_val, bool)
            return same_domain and c_val != d_val
        inner = _bounds(covered)
        if inner is not None:
            low, high, incl, inch = inner
            try:
                if low is not None and c_val < low:
                    return True
                if low is not None and c_val == low and not incl:
                    return True
                if high is not None and c_val > high:
                    return True
                if high is not None and c_val == high and not inch:
                    return True
            except TypeError:
                return False
        if d_op is Operator.IN:
            return c_val not in d_val
        return False
    if c_op is Operator.PREFIX:
        if d_op is Operator.PREFIX:
            return d_val.startswith(c_val)
        if d_op is Operator.EQ and isinstance(d_val, str):
            return d_val.startswith(c_val)
        return False
    if c_op is Operator.SUFFIX:
        if d_op is Operator.SUFFIX:
            return d_val.endswith(c_val)
        if d_op is Operator.EQ and isinstance(d_val, str):
            return d_val.endswith(c_val)
        return False
    if c_op is Operator.CONTAINS:
        if d_op in (Operator.CONTAINS, Operator.PREFIX, Operator.SUFFIX):
            return c_val in d_val
        if d_op is Operator.EQ and isinstance(d_val, str):
            return c_val in d_val
        return False
    return False


def clause_covers(coverer: Clause, covered: Clause) -> bool:
    """Conjunction implication: every coverer literal follows from some
    covered literal.  Negative literals must match exactly."""
    for literal in coverer.literals:
        satisfied = False
        for candidate in covered.literals:
            if literal.positive and candidate.positive:
                if predicate_covers(literal.predicate, candidate.predicate):
                    satisfied = True
                    break
            elif not literal.positive and not candidate.positive:
                # NOT p is implied by NOT q iff q is implied by p
                if predicate_covers(candidate.predicate, literal.predicate):
                    satisfied = True
                    break
        if not satisfied:
            return False
    return True


def covers(
    coverer: BooleanExpression,
    covered: BooleanExpression,
    *,
    max_clauses: int = 4_096,
) -> bool:
    """Sound (incomplete) covering test between Boolean expressions.

    Both expressions are put into DNF on every call; ``coverer`` covers
    ``covered`` when every clause of the covered DNF is covered by some
    clause of the coverer's DNF.  Expressions whose DNF exceeds
    ``max_clauses`` conservatively return ``False``.  Callers that test
    one expression many times keep its DNF instead (the covering index
    keeps one per member summary) and call :func:`dnf_covers`.
    """
    try:
        coverer_dnf = to_dnf(coverer, max_clauses=max_clauses)
        covered_dnf = to_dnf(covered, max_clauses=max_clauses)
    except DnfExplosionError:
        return False
    return dnf_covers(coverer_dnf, covered_dnf)


def dnf_covers(
    coverer_dnf: DisjunctiveNormalForm,
    covered_dnf: DisjunctiveNormalForm,
) -> bool:
    """The DNF-level covering test behind :func:`covers`.

    Split out so callers that already hold both DNFs (the covering
    index keeps them per subscription) pay only the clause comparison,
    never a re-derivation.
    """
    for covered_clause in covered_dnf:
        if not any(
            clause_covers(coverer_clause, covered_clause)
            for coverer_clause in coverer_dnf
        ):
            return False
    return True
