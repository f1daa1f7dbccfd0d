"""Optional event schemas.

A schema declares the attributes an event type may carry and their value
types.  Schemas are *optional* in this system — the paper's engines filter
schema-less attribute/value events — but brokers can enforce one at the
publishing boundary, and workload generators use schemas to draw random
events and predicates over a well-defined attribute space.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from .event import ALLOWED_VALUE_TYPES, AttributeValue, Event


class AttributeType(enum.Enum):
    """The scalar types an event attribute can have."""

    INT = "int"
    FLOAT = "float"
    STRING = "string"
    BOOL = "bool"

    @property
    def python_types(self) -> tuple[type, ...]:
        """The Python types accepted for this attribute type.

        ``INT`` values are also accepted where ``FLOAT`` is declared, as in
        most typed event systems.
        """
        return _PYTHON_TYPES[self]


_PYTHON_TYPES = {
    AttributeType.INT: (int,),
    AttributeType.FLOAT: (int, float),
    AttributeType.STRING: (str,),
    AttributeType.BOOL: (bool,),
}


class SchemaViolationError(ValueError):
    """Raised when an event does not conform to a schema."""


@dataclass(frozen=True)
class AttributeSpec:
    """Declaration of a single attribute within a schema.

    Parameters
    ----------
    name:
        Attribute name.
    type:
        Declared :class:`AttributeType`.
    required:
        Whether events must carry the attribute.
    """

    name: str
    type: AttributeType
    required: bool = False

    def validate(self, value: AttributeValue) -> None:
        """Raise :class:`SchemaViolationError` if ``value`` has the wrong type."""
        if not isinstance(value, ALLOWED_VALUE_TYPES):
            raise SchemaViolationError(
                f"attribute {self.name!r}: unsupported value {value!r}"
            )
        # bool is a subclass of int; reject it explicitly for INT/FLOAT.
        if isinstance(value, bool) and self.type is not AttributeType.BOOL:
            raise SchemaViolationError(
                f"attribute {self.name!r}: expected {self.type.value}, got bool"
            )
        if not isinstance(value, self.type.python_types):
            raise SchemaViolationError(
                f"attribute {self.name!r}: expected {self.type.value}, "
                f"got {type(value).__name__}"
            )


class EventSchema(Mapping[str, AttributeSpec]):
    """A named collection of :class:`AttributeSpec` declarations.

    Example
    -------
    >>> schema = EventSchema("stock", [
    ...     AttributeSpec("symbol", AttributeType.STRING, required=True),
    ...     AttributeSpec("price", AttributeType.FLOAT, required=True),
    ... ])
    >>> schema.validate(Event({"symbol": "ACME", "price": 10.0}))
    """

    def __init__(self, name: str, specs: Iterable[AttributeSpec]) -> None:
        if not name:
            raise ValueError("schema name must be non-empty")
        self._name = name
        self._specs: dict[str, AttributeSpec] = {}
        for spec in specs:
            if spec.name in self._specs:
                raise ValueError(f"duplicate attribute {spec.name!r} in schema")
            self._specs[spec.name] = spec
        self._required = frozenset(
            n for n, s in self._specs.items() if s.required
        )

    @property
    def name(self) -> str:
        """The schema's name (event type name)."""
        return self._name

    @property
    def required_attributes(self) -> frozenset[str]:
        """Names of all attributes events must carry."""
        return self._required

    def __getitem__(self, name: str) -> AttributeSpec:
        return self._specs[name]

    def __iter__(self) -> Iterator[str]:
        return iter(self._specs)

    def __len__(self) -> int:
        return len(self._specs)

    def validate(self, event: Event) -> None:
        """Check ``event`` against this schema.

        Raises
        ------
        SchemaViolationError
            If a required attribute is missing, an undeclared attribute is
            present, or a value has the wrong type.
        """
        missing = self._required.difference(event)
        if missing:
            raise SchemaViolationError(
                f"event is missing required attributes: {sorted(missing)}"
            )
        for name, value in event.items():
            spec = self._specs.get(name)
            if spec is None:
                raise SchemaViolationError(
                    f"event carries undeclared attribute {name!r}"
                )
            spec.validate(value)

    def conforms(self, event: Event) -> bool:
        """Return ``True`` when ``event`` validates against this schema."""
        try:
            self.validate(event)
        except SchemaViolationError:
            return False
        return True

    def __repr__(self) -> str:
        return f"EventSchema({self._name!r}, {len(self._specs)} attributes)"
