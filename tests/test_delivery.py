"""The delivery contract, held on both publish surfaces.

``Broker.publish`` and ``BrokerNetwork.publish`` share one delivery
loop (``Broker.notify_local``).  Each test runs on a standalone broker
and on a two-broker line whose subscriptions live at the far broker, so
events reach them through forwarding.
"""

from __future__ import annotations

import pytest

from repro.broker import Broker, BrokerNetwork, CollectingSink, Notification
from repro.events import Event
from repro.subscriptions import Subscription


class Surface:
    """One publish surface: subscriptions are homed at ``home``."""

    def __init__(self, kind: str) -> None:
        if kind == "broker":
            self.home = Broker("home")
            self.network = None
        else:
            self.network = BrokerNetwork()
            for name in ("origin", "home"):
                self.network.add_broker(name)
            self.network.connect("origin", "home")
            self.home = self.network.broker("home")

    def subscribe(self, subscription, **options):
        if self.network is None:
            return self.home.subscribe(subscription, **options)
        return self.network.subscribe("home", subscription, **options)

    def publish(self, events, *, at: str = "origin"):
        if self.network is None:
            return self.home.publish(events)
        return self.network.publish(at, events)


@pytest.fixture(params=["broker", "network"])
def surface(request):
    return Surface(request.param)


def test_notification_is_immutable_and_compares_by_fields(surface):
    surface.subscribe("x = 1", subscriber="alice")
    [notification] = surface.publish(Event({"x": 1}))
    with pytest.raises(AttributeError):
        notification.subscriber = "mallory"
    event, subscription_id, subscriber, broker = notification
    assert (subscriber, broker) == ("alice", "home")
    twin = Notification(event, subscription_id, subscriber, broker)
    assert notification == twin == (event, subscription_id, subscriber, broker)
    assert hash(notification) == hash(twin)
    assert notification._replace(subscriber="bob").subscriber == "bob"


def test_notifications_follow_subscription_id_order(surface):
    expression = Subscription.from_text("x = 1").expression
    for subscription_id in (30, 10, 20):
        surface.subscribe(
            Subscription(expression=expression, subscription_id=subscription_id)
        )
    single = surface.publish(Event({"x": 1}))
    batch = surface.publish([Event({"x": 1}), Event({"x": 2}), Event({"x": 1})])
    assert [n.subscription_id for n in single] == [10, 20, 30]
    assert [[n.subscription_id for n in row] for row in batch] == [
        [10, 20, 30], [], [10, 20, 30],
    ]


def test_paused_handle_gets_no_notification_and_no_sink_call(surface):
    quiet_sink, loud_sink = CollectingSink(), CollectingSink()
    quiet = surface.subscribe("x = 1", subscriber="quiet", sink=quiet_sink)
    loud = surface.subscribe("x = 1", subscriber="loud", sink=loud_sink)
    quiet.pause()
    delivered = surface.publish([Event({"x": 1}), Event({"x": 1})])
    assert [[n.subscription_id for n in row] for row in delivered] == [
        [loud.id], [loud.id],
    ]
    assert quiet_sink.delivered == 0 and loud_sink.delivered == 2
    quiet.resume()
    assert {n.subscriber for n in surface.publish(Event({"x": 1}))} == {
        "quiet", "loud",
    }
    assert quiet_sink.delivered == 1


def test_sink_receives_the_returned_objects(surface):
    sink = CollectingSink()
    surface.subscribe("x > 0", sink=sink)
    delivered = surface.publish([Event({"x": 1}), Event({"x": 2})])
    returned = [n for row in delivered for n in row]
    assert len(sink.notifications) == len(returned) == 2
    assert all(a is b for a, b in zip(sink.notifications, returned))


def test_matched_id_without_handle_yields_no_subscriber(surface):
    """An id registered on the home engine directly has no handle (nor a
    routing entry, so the network only sees it when publishing there)."""
    bare = Subscription.from_text("x = 1")
    surface.home.engine.register(bare)
    [notification] = surface.publish(Event({"x": 1}), at="home")
    assert notification.subscription_id == bare.subscription_id
    assert notification.subscriber is None
    assert notification.broker == "home"


def test_notifications_delivered_counts_each_returned_notification_once(surface):
    for _ in range(3):
        surface.subscribe("x = 1")
    paused = surface.subscribe("x = 1")
    paused.pause()
    surface.subscribe("x = 2")
    single = surface.publish(Event({"x": 1}))
    batch = surface.publish([Event({"x": 1}), Event({"x": 2}), Event({"x": 3})])
    returned = len(single) + sum(map(len, batch))
    assert returned == 3 + 3 + 1
    assert surface.home.stats.notifications_delivered == returned
    assert surface.home.stats.events_matched == 3
    if surface.network is not None:
        assert surface.network.stats.notifications_delivered == returned
        assert surface.network.broker("origin").stats.notifications_delivered == 0


def test_notify_local_delivers_one_event_to_the_given_ids():
    broker = Broker("home")
    sink = CollectingSink()
    first = broker.subscribe("x = 1", subscriber="a", sink=sink)
    second = broker.subscribe("x = 2", subscriber="b")
    event = Event({"x": 9})
    delivered = broker.notify_local(event, [first.id, second.id])
    assert delivered == [
        (event, first.id, "a", "home"),
        (event, second.id, "b", "home"),
    ]
    assert sink.notifications == delivered[:1]
    assert broker.stats.notifications_delivered == 2
    assert broker.notify_local(event, []) == []
    assert broker.stats.notifications_delivered == 2
