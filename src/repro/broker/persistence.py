"""Subscription persistence: save and restore broker state.

Brokers on "less equipped machines" (paper §1) restart; a production
deployment needs its subscription population to survive.  Subscriptions
serialize to JSON lines — one object per subscription with its id,
subscriber and the expression in the subscription language's textual
form (the parser round-trips everything :func:`repro.subscriptions.parse`
accepts, which the parser test suite pins).

Example
-------
>>> broker = Broker("edge")
>>> broker.subscribe("price > 10", subscriber="alice")     # doctest: +SKIP
>>> save_broker(broker, "subscriptions.jsonl")             # doctest: +SKIP
>>> restored = Broker("edge-2")
>>> restore_broker(restored, "subscriptions.jsonl")        # doctest: +SKIP
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable

from ..subscriptions.parser import parse
from ..subscriptions.subscription import Subscription
from .broker import Broker

FORMAT_VERSION = 1


class PersistenceError(ValueError):
    """Raised when a subscription file is malformed."""


def serialize_subscription(subscription: Subscription) -> str:
    """One subscription as a JSON line."""
    return json.dumps(
        {
            "v": FORMAT_VERSION,
            "id": subscription.subscription_id,
            "subscriber": subscription.subscriber,
            "expression": str(subscription.expression),
        },
        sort_keys=True,
    )


def deserialize_subscription(line: str) -> Subscription:
    """Parse one JSON line back into a subscription.

    Raises
    ------
    PersistenceError
        On malformed JSON, missing fields, unsupported versions, or
        expressions the subscription language cannot parse.
    """
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as error:
        raise PersistenceError(f"malformed subscription line: {error}") from None
    if not isinstance(payload, dict):
        raise PersistenceError(f"expected an object, got {payload!r}")
    version = payload.get("v")
    if type(version) is not int or version != FORMAT_VERSION:
        raise PersistenceError(f"unsupported format version {version!r}")
    missing = {"id", "expression"} - set(payload)
    if missing:
        raise PersistenceError(f"missing fields: {sorted(missing)}")
    identifier = payload["id"]
    if type(identifier) is not int or identifier <= 0:
        raise PersistenceError(f"invalid subscription id {identifier!r}")
    subscriber = payload.get("subscriber")
    if subscriber is not None and not isinstance(subscriber, str):
        raise PersistenceError(f"invalid subscriber {subscriber!r}")
    text = payload["expression"]
    if not isinstance(text, str):
        raise PersistenceError(f"expression is not a string: {text!r}")
    try:
        expression = parse(text)
    except ValueError as error:
        raise PersistenceError(
            f"unparseable expression {text!r}: {error}"
        ) from None
    return Subscription(
        expression=expression,
        subscriber=subscriber,
        subscription_id=identifier,
    )


def dump_subscriptions(
    subscriptions: Iterable[Subscription], path: str | Path
) -> int:
    """Write subscriptions to ``path`` (JSON lines); returns the count."""
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        for subscription in subscriptions:
            handle.write(serialize_subscription(subscription) + "\n")
            count += 1
    return count


def load_subscriptions(path: str | Path) -> list[Subscription]:
    """Read subscriptions back from ``path``; ids must be distinct."""
    subscriptions = []
    seen: set[int] = set()
    with open(path, encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                subscription = deserialize_subscription(line)
                if subscription.subscription_id in seen:
                    raise PersistenceError(
                        f"duplicate subscription id {subscription.subscription_id}"
                    )
            except PersistenceError as error:
                raise PersistenceError(f"line {number}: {error}") from None
            seen.add(subscription.subscription_id)
            subscriptions.append(subscription)
    return subscriptions


def save_broker(broker: Broker, path: str | Path) -> int:
    """Persist every live subscription of ``broker``."""
    return dump_subscriptions(broker.subscriptions(), path)


def restore_broker(broker: Broker, path: str | Path) -> int:
    """Register every persisted subscription with ``broker``.

    Callbacks are not persisted (they are process-local callables);
    subscribers re-attach by id after a restore.  The restore is all or
    nothing: the whole file is checked, against the broker's live ids
    too, before anything registers, and a subscription the engine
    rejects unregisters the ones restored before it.
    """
    subscriptions = load_subscriptions(path)
    live = broker.engine.subscription_ids()
    for subscription in subscriptions:
        if subscription.subscription_id in live:
            raise PersistenceError(
                f"subscription id {subscription.subscription_id} is already "
                f"registered at broker {broker.name!r}"
            )
    restored: list[int] = []
    try:
        for subscription in subscriptions:
            broker.subscribe(subscription)
            restored.append(subscription.subscription_id)
    except Exception:
        for subscription_id in restored:
            broker.unsubscribe(subscription_id)
        raise
    return len(subscriptions)
