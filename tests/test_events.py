"""Unit tests for the event model (repro.events)."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.events import (
    AttributeSpec,
    AttributeType,
    Event,
    EventSchema,
    InvalidEventError,
    SchemaViolationError,
)


class TestEventConstruction:
    def test_basic_attributes_accessible(self):
        event = Event({"price": 10, "symbol": "ACME"})
        assert event["price"] == 10
        assert event["symbol"] == "ACME"

    def test_supports_all_scalar_types(self):
        event = Event({"i": 1, "f": 1.5, "s": "x", "b": True})
        assert event["i"] == 1
        assert event["f"] == 1.5
        assert event["s"] == "x"
        assert event["b"] is True

    def test_rejects_non_string_attribute_name(self):
        with pytest.raises(InvalidEventError):
            Event({1: "x"})

    def test_rejects_empty_attribute_name(self):
        with pytest.raises(InvalidEventError):
            Event({"": 1})

    def test_rejects_unsupported_value_type(self):
        with pytest.raises(InvalidEventError):
            Event({"xs": [1, 2]})

    def test_rejects_none_value(self):
        with pytest.raises(InvalidEventError):
            Event({"x": None})

    def test_empty_event_is_allowed(self):
        event = Event({})
        assert len(event) == 0

    def test_event_ids_are_unique(self):
        first = Event({"a": 1})
        second = Event({"a": 1})
        assert first.event_id != second.event_id

    def test_explicit_event_id(self):
        event = Event({"a": 1}, event_id=42)
        assert event.event_id == 42


class TestEventMappingProtocol:
    def test_len_and_iter(self):
        event = Event({"a": 1, "b": 2})
        assert len(event) == 2
        assert sorted(event) == ["a", "b"]

    def test_contains(self):
        event = Event({"a": 1})
        assert "a" in event
        assert "b" not in event

    def test_get_with_default(self):
        event = Event({"a": 1})
        assert event.get("a") == 1
        assert event.get("b") is None
        assert event.get("b", 7) == 7

    def test_items_view(self):
        event = Event({"a": 1})
        assert dict(event.items()) == {"a": 1}

    def test_attributes_copy_is_detached(self):
        event = Event({"a": 1})
        copy = event.attributes
        assert copy == {"a": 1}

    def test_equality_ignores_event_id(self):
        assert Event({"a": 1}) == Event({"a": 1})
        assert Event({"a": 1}) != Event({"a": 2})

    def test_hash_consistent_with_equality(self):
        assert hash(Event({"a": 1})) == hash(Event({"a": 1}))

    def test_repr_mentions_attributes(self):
        assert "price" in repr(Event({"price": 3}))

    @given(
        st.dictionaries(
            st.text(min_size=1, max_size=8),
            st.one_of(st.integers(), st.text(max_size=5), st.booleans()),
            max_size=6,
        )
    )
    def test_roundtrip_any_valid_mapping(self, mapping):
        event = Event(mapping)
        assert dict(event.items()) == mapping


class TestAttributeSpec:
    def test_int_spec_accepts_int(self):
        AttributeSpec("x", AttributeType.INT).validate(3)

    def test_int_spec_rejects_bool(self):
        with pytest.raises(SchemaViolationError):
            AttributeSpec("x", AttributeType.INT).validate(True)

    def test_float_spec_accepts_int_and_float(self):
        spec = AttributeSpec("x", AttributeType.FLOAT)
        spec.validate(1)
        spec.validate(1.5)

    def test_float_spec_rejects_bool(self):
        with pytest.raises(SchemaViolationError):
            AttributeSpec("x", AttributeType.FLOAT).validate(False)

    def test_string_spec_rejects_number(self):
        with pytest.raises(SchemaViolationError):
            AttributeSpec("x", AttributeType.STRING).validate(3)

    def test_bool_spec_accepts_bool_only(self):
        spec = AttributeSpec("x", AttributeType.BOOL)
        spec.validate(True)
        with pytest.raises(SchemaViolationError):
            spec.validate(1)


class TestEventSchema:
    @pytest.fixture
    def schema(self):
        return EventSchema(
            "trade",
            [
                AttributeSpec("symbol", AttributeType.STRING, required=True),
                AttributeSpec("price", AttributeType.FLOAT, required=True),
                AttributeSpec("note", AttributeType.STRING),
            ],
        )

    def test_valid_event_passes(self, schema):
        schema.validate(Event({"symbol": "A", "price": 1.0}))

    def test_optional_attribute_allowed(self, schema):
        schema.validate(Event({"symbol": "A", "price": 1.0, "note": "hi"}))

    def test_missing_required_attribute_fails(self, schema):
        with pytest.raises(SchemaViolationError, match="missing required"):
            schema.validate(Event({"symbol": "A"}))

    def test_undeclared_attribute_fails(self, schema):
        with pytest.raises(SchemaViolationError, match="undeclared"):
            schema.validate(Event({"symbol": "A", "price": 1.0, "x": 1}))

    def test_wrong_type_fails(self, schema):
        with pytest.raises(SchemaViolationError):
            schema.validate(Event({"symbol": "A", "price": "cheap"}))

    def test_missing_names_every_required_attribute(self, schema):
        with pytest.raises(SchemaViolationError, match=r"\['price', 'symbol'\]"):
            schema.validate(Event({"note": "hi"}))

    def test_wrong_type_names_attribute_and_types(self, schema):
        with pytest.raises(
            SchemaViolationError, match="'symbol': expected string, got int"
        ):
            schema.validate(Event({"symbol": 3, "price": 1.0}))

    def test_bool_rejected_for_int_attribute(self):
        schema = EventSchema(
            "counter", [AttributeSpec("n", AttributeType.INT, required=True)]
        )
        with pytest.raises(SchemaViolationError, match="expected int, got bool"):
            schema.validate(Event({"n": True}))
        schema.validate(Event({"n": 1}))

    def test_rejections_leave_the_schema_reusable(self, schema):
        """The required set and type table are built once and shared by
        every call, so a rejection must not disturb later checks."""
        rejected = [
            Event({"symbol": "A"}),
            Event({"symbol": "A", "price": 1.0, "x": 1}),
            Event({"symbol": "A", "price": "cheap"}),
            Event({"symbol": "A", "price": True}),
        ]
        for _ in range(2):
            assert not any(schema.conforms(event) for event in rejected)
            assert schema.conforms(Event({"symbol": "A", "price": 2}))
        assert schema.required_attributes == {"symbol", "price"}

    def test_python_types_per_attribute_type(self):
        assert AttributeType.INT.python_types == (int,)
        assert AttributeType.FLOAT.python_types == (int, float)
        assert AttributeType.STRING.python_types == (str,)
        assert AttributeType.BOOL.python_types == (bool,)

    def test_conforms_is_boolean_form(self, schema):
        assert schema.conforms(Event({"symbol": "A", "price": 1.0}))
        assert not schema.conforms(Event({"symbol": "A"}))

    def test_required_attributes_property(self, schema):
        assert schema.required_attributes == {"symbol", "price"}

    def test_mapping_protocol(self, schema):
        assert len(schema) == 3
        assert schema["note"].required is False
        assert "symbol" in set(schema)

    def test_duplicate_attribute_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            EventSchema(
                "x",
                [
                    AttributeSpec("a", AttributeType.INT),
                    AttributeSpec("a", AttributeType.INT),
                ],
            )

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            EventSchema("", [])
