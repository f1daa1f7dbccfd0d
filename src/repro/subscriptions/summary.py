"""Per-expression summaries: signatures, interval hulls, point anchors.

One summary shape serves two consumers.  The covering index
(:mod:`repro.subscriptions.covering_index`) prefilters candidate
coverer/covered pairs with the required-attribute signature and the
interval hulls; the sharded runtime's routed partitioner
(:mod:`repro.core.sharded`) places subscriptions into event-space
regions with the same hulls plus the *point anchors* and prunes whole
shards per event.

:func:`summarize` is a pure function and keeps nothing: a consumer
holds the summaries it needs and drops them when the subscription
leaves.  Where one subscription meets several consumers, the caller
derives once and hands the summary over — a broker network summarizes
a subscribe once and passes it to every routing table on the tree, and
the routed partitioner summarizes once per ``assign``.

Summary fields and their soundness roles:

* ``required`` — attributes appearing in **every** DNF clause.  A
  necessary condition for *covering* (a coverer's required set is a
  subset of the covered one's), but **not** for event admission: a
  clause can require an attribute only through a *negative* literal,
  which an event satisfies by omitting the attribute entirely.
* ``hulls`` — per-attribute convex hull over all positive interval
  literals, present only when every clause has at least one (the
  *tight* attributes).  Tightness makes the hull a sound
  event-admission condition: an event can only match if it carries the
  attribute with a value inside the hull.
* ``anchors`` — per-attribute finite value set, present only when
  every satisfiable clause pins the attribute to a single point (the
  intersection of its positive interval literals is degenerate).  The
  strongest sound admission condition — ``e[attr] ∈ anchors[attr]`` —
  and the routed partitioner's region key for equality-keyed corpora.
* ``clause_hulls`` — covered-role hull of per-clause intersection
  intervals; only the covering prefilters consume it.

Expressions whose DNF explodes past :data:`MAX_CLAUSES` summarize to
the universal summary (no signature, no hulls, no anchors): the
covering index never lets them cover anything, and the partitioner
never prunes an event away from them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from ..predicates.operators import Operator
from .ast import BooleanExpression
from .covering import _bounds, _is_nan
from .normal_forms import DisjunctiveNormalForm, DnfExplosionError, to_dnf

#: Clause cap of the DNF derivation behind a summary; an expression
#: past it gets the universal summary.
MAX_CLAUSES = 4_096

#: Interval quadruple: (low, high, low_inclusive, high_inclusive) with
#: ``None`` bounds meaning unbounded — the representation
#: :func:`repro.subscriptions.covering._bounds` produces.
Interval = tuple


def _hull(first: Interval, second: Interval) -> Interval:
    """Smallest interval containing both (the convex hull).

    Raises ``TypeError`` on cross-domain bounds (string versus number);
    callers treat that as "no usable interval summary".
    """
    a_low, a_high, a_incl, a_inch = first
    b_low, b_high, b_incl, b_inch = second
    if a_low is None or b_low is None:
        low, incl = None, False
    elif a_low < b_low or (a_low == b_low and a_incl):
        low, incl = a_low, a_incl or (a_low == b_low and b_incl)
    else:
        low, incl = b_low, b_incl
    if a_high is None or b_high is None:
        high, inch = None, False
    elif a_high > b_high or (a_high == b_high and a_inch):
        high, inch = a_high, a_inch or (a_high == b_high and b_inch)
    else:
        high, inch = b_high, b_inch
    return (low, high, incl, inch)


def _intersect(first: Interval, second: Interval) -> Interval | None:
    """Interval intersection; ``None`` when empty.

    Raises ``TypeError`` on cross-domain bounds.
    """
    a_low, a_high, a_incl, a_inch = first
    b_low, b_high, b_incl, b_inch = second
    if a_low is None:
        low, incl = b_low, b_incl
    elif b_low is None or a_low > b_low:
        low, incl = a_low, a_incl
    elif a_low < b_low:
        low, incl = b_low, b_incl
    else:
        low, incl = a_low, a_incl and b_incl
    if a_high is None:
        high, inch = b_high, b_inch
    elif b_high is None or a_high < b_high:
        high, inch = a_high, a_inch
    elif a_high > b_high:
        high, inch = b_high, b_inch
    else:
        high, inch = a_high, a_inch and b_inch
    if low is not None and high is not None:
        if low > high or (low == high and not (incl and inch)):
            return None
    return (low, high, incl, inch)


def interval_admits(hull: Interval, value) -> bool:
    """Whether ``value`` lies inside ``hull`` (conservative on TypeError).

    The event-admission test behind hull-based pruning: cross-domain
    comparisons answer ``True`` ("cannot exclude"), never raise.
    """
    low, high, incl, inch = hull
    try:
        if low is not None and (value < low or (value == low and not incl)):
            return False
        if high is not None and (value > high or (value == high and not inch)):
            return False
    except TypeError:
        return True
    return True


def _pseudo_bounds(predicate) -> Interval | None:
    """A value-set bounding interval for prefilter purposes.

    Extends :func:`~repro.subscriptions.covering._bounds` with operators
    whose value set still fits an interval envelope: ``IN`` (hull of the
    alternatives) and boolean ``EQ`` (booleans order as 0/1).  Every
    interval produced is a *necessary* condition on the event value, so
    it is usable on the covered side of the covering prefilter and in
    the admission intersections below.  An ``IN`` with a NaN alternative
    gets none: ``min``/``max`` over a NaN depend on set order.
    """
    bounds = _bounds(predicate)
    if bounds is not None:
        return bounds
    operator = predicate.operator
    value = predicate.value
    if operator is Operator.IN:
        values = list(value)
        if any(_is_nan(alternative) for alternative in values):
            return None
        try:
            low, high = min(values), max(values)
        except TypeError:
            return None
        return (low, high, True, True)
    if operator is Operator.EQ and isinstance(value, bool):
        return (value, value, True, True)
    return None


@dataclass(frozen=True)
class ExpressionSummary:
    """Everything the prefilters and the router need, precomputed once.

    ``dnf`` is ``None`` when the DNF derivation exploded past
    :data:`MAX_CLAUSES` — such expressions are always maximal in the covering
    poset, never act as coverers, and are universal to the router (no
    event may be pruned away from them).
    """

    dnf: DisjunctiveNormalForm | None
    #: attributes appearing in every DNF clause
    required: frozenset
    #: coverer role: attribute -> hull over all positive interval
    #: literals, present only when *every* clause has at least one
    hulls: Mapping[str, Interval]
    #: covered role: attribute -> hull of per-clause intersection
    #: intervals (``None`` value = unusable, prefilter must pass)
    clause_hulls: Mapping[str, Interval | None]
    #: router role: attribute -> finite point-value set, present only
    #: when every satisfiable clause pins the attribute to one value
    anchors: Mapping[str, frozenset] = field(default_factory=dict)


def summarize(expression: BooleanExpression) -> ExpressionSummary:
    """Derive the summary of one expression (one DNF derivation)."""
    try:
        dnf = to_dnf(expression, max_clauses=MAX_CLAUSES)
    except DnfExplosionError:
        return ExpressionSummary(None, frozenset(), {}, {}, {})
    attribute_sets = []
    for clause in dnf:
        attribute_sets.append(
            frozenset(literal.predicate.attribute for literal in clause)
        )
    required = frozenset.intersection(*attribute_sets)
    hulls: dict[str, Interval] = {}
    clause_hulls: dict[str, Interval | None] = {}
    anchors: dict[str, frozenset] = {}
    for attribute in required:
        coverer_hull: Interval | None = None
        covered_hull: Interval | None = None
        tight = True          # every clause has a positive interval literal
        usable = True         # no cross-domain TypeError anywhere
        anchored = True       # every satisfiable clause pins one value
        points: set = set()
        for clause in dnf:
            clause_interval: Interval | None = None
            clause_nonempty = True
            has_interval_literal = False
            for literal in clause:
                if literal.predicate.attribute != attribute:
                    continue
                if not literal.positive:
                    continue
                exact = _bounds(literal.predicate)
                if exact is not None:
                    has_interval_literal = True
                    if coverer_hull is None:
                        coverer_hull = exact
                    else:
                        try:
                            coverer_hull = _hull(coverer_hull, exact)
                        except TypeError:
                            usable = False
                            break
                pseudo = exact or _pseudo_bounds(literal.predicate)
                if pseudo is not None and clause_nonempty:
                    if clause_interval is None:
                        clause_interval = pseudo
                    else:
                        try:
                            clause_interval = _intersect(clause_interval, pseudo)
                        except TypeError:
                            usable = False
                            break
                        if clause_interval is None:
                            clause_nonempty = False
            if not usable:
                break
            if not has_interval_literal:
                tight = False
            # anchor bookkeeping: an unsatisfiable clause admits no
            # event and contributes no point; a satisfiable clause
            # anchors only when its intersection is a single value
            if clause_nonempty:
                if (
                    clause_interval is not None
                    and clause_interval[0] is not None
                    and clause_interval[0] == clause_interval[1]
                    and clause_interval[2]
                    and clause_interval[3]
                ):
                    points.add(clause_interval[0])
                else:
                    anchored = False
            if clause_nonempty and clause_interval is None:
                # no positive interval-able literal: the clause admits
                # any value, so the covered-role hull is unbounded
                clause_interval = (None, None, False, False)
            if clause_nonempty:
                if covered_hull is None:
                    covered_hull = clause_interval
                else:
                    try:
                        covered_hull = _hull(covered_hull, clause_interval)
                    except TypeError:
                        usable = False
                        break
        if not usable:
            clause_hulls[attribute] = None
            continue
        if tight and coverer_hull is not None:
            hulls[attribute] = coverer_hull
        if anchored:
            anchors[attribute] = frozenset(points)
        # covered_hull None here means every clause was empty on this
        # attribute (unsatisfiable): contained in anything
        clause_hulls[attribute] = covered_hull or "empty"
    return ExpressionSummary(dnf, required, hulls, clause_hulls, anchors)
