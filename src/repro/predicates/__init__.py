"""Predicate language: attribute-operator-value triples and their registry."""

from .operators import Operator
from .predicate import InvalidPredicateError, Predicate
from .registry import PredicateRegistry, UnknownPredicateError

__all__ = [
    "Operator",
    "InvalidPredicateError",
    "Predicate",
    "PredicateRegistry",
    "UnknownPredicateError",
]
