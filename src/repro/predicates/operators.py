"""Predicate operators.

The paper defines predicates as attribute-operator-value triples.  This
module enumerates the supported operators and implements their evaluation
semantics against event attribute values.

Which one-dimensional index structure serves each operator in predicate
matching (paper §3.2) is decided in one place,
:data:`repro.indexes.manager.OPERATOR_SLOTS`.
"""

from __future__ import annotations

import enum
from typing import Any


class Operator(enum.Enum):
    """The comparison operators usable in predicates."""

    EQ = "="
    NE = "!="
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="
    BETWEEN = "between"   # value is an inclusive (low, high) pair
    IN = "in"             # value is a frozenset of alternatives
    PREFIX = "prefix"     # string starts-with
    SUFFIX = "suffix"     # string ends-with
    CONTAINS = "contains" # string substring
    EXISTS = "exists"     # attribute is present, value ignored

    @property
    def is_numeric_range(self) -> bool:
        """True for operators requiring an ordered (numeric) domain."""
        return self in (
            Operator.LT,
            Operator.LE,
            Operator.GT,
            Operator.GE,
            Operator.BETWEEN,
        )

    @property
    def is_string_only(self) -> bool:
        """True for operators defined only on string attributes."""
        return self in (Operator.PREFIX, Operator.SUFFIX, Operator.CONTAINS)

    def evaluate(self, attribute_value: Any, operand: Any) -> bool:
        """Apply this operator to an event attribute value.

        Parameters
        ----------
        attribute_value:
            The value the event carries for the predicate's attribute.
        operand:
            The predicate's value operand: a scalar for comparisons, an
            inclusive ``(low, high)`` tuple for ``BETWEEN``, a frozenset
            for ``IN``, ignored for ``EXISTS``.

        Returns
        -------
        bool
            Whether the predicate is fulfilled.  Type mismatches (e.g. a
            string event value under a numeric operator) evaluate to
            ``False`` rather than raising, matching the permissive
            semantics of schema-less pub/sub systems.
        """
        evaluator = _EVALUATORS[self]
        try:
            return evaluator(attribute_value, operand)
        except TypeError:
            return False

    @classmethod
    def from_symbol(cls, symbol: str) -> "Operator":
        """Parse an operator from its textual symbol.

        Accepts the canonical symbols (``=``, ``!=``, ``<``, ...) plus the
        common aliases ``==`` and ``<>``.
        """
        normalized = symbol.strip().lower()
        aliases = {"==": "=", "<>": "!="}
        normalized = aliases.get(normalized, normalized)
        for op in cls:
            if op.value == normalized:
                return op
        raise ValueError(f"unknown operator symbol {symbol!r}")


def _comparable(a: Any, b: Any) -> bool:
    """Whether ``a`` and ``b`` live in the same ordered domain."""
    if isinstance(a, bool) or isinstance(b, bool):
        return isinstance(a, bool) and isinstance(b, bool)
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return True
    return isinstance(a, str) and isinstance(b, str)


def _eval_eq(v: Any, o: Any) -> bool:
    if isinstance(v, bool) != isinstance(o, bool):
        return False
    return v == o


def _eval_ne(v: Any, o: Any) -> bool:
    if isinstance(v, bool) != isinstance(o, bool):
        return False
    return v != o


def _eval_lt(v: Any, o: Any) -> bool:
    return _comparable(v, o) and v < o


def _eval_le(v: Any, o: Any) -> bool:
    return _comparable(v, o) and v <= o


def _eval_gt(v: Any, o: Any) -> bool:
    return _comparable(v, o) and v > o


def _eval_ge(v: Any, o: Any) -> bool:
    return _comparable(v, o) and v >= o


def _eval_between(v: Any, o: Any) -> bool:
    low, high = o
    return _comparable(v, low) and _comparable(v, high) and low <= v <= high


def _eval_in(v: Any, o: Any) -> bool:
    return v in o


def _eval_prefix(v: Any, o: Any) -> bool:
    return isinstance(v, str) and isinstance(o, str) and v.startswith(o)


def _eval_suffix(v: Any, o: Any) -> bool:
    return isinstance(v, str) and isinstance(o, str) and v.endswith(o)


def _eval_contains(v: Any, o: Any) -> bool:
    return isinstance(v, str) and isinstance(o, str) and o in v


def _eval_exists(v: Any, o: Any) -> bool:
    return True  # reaching evaluation means the attribute was present


_EVALUATORS = {
    Operator.EQ: _eval_eq,
    Operator.NE: _eval_ne,
    Operator.LT: _eval_lt,
    Operator.LE: _eval_le,
    Operator.GT: _eval_gt,
    Operator.GE: _eval_ge,
    Operator.BETWEEN: _eval_between,
    Operator.IN: _eval_in,
    Operator.PREFIX: _eval_prefix,
    Operator.SUFFIX: _eval_suffix,
    Operator.CONTAINS: _eval_contains,
    Operator.EXISTS: _eval_exists,
}
