"""Workload generation: paper-shaped subscriptions, events, scenarios."""

from .distributions import make_rng, zipf_weights
from .generator import (
    EventGenerator,
    FulfilledPredicateSampler,
    GeneralSubscriptionGenerator,
    PaperSubscriptionGenerator,
)
from .scenarios import (
    AUCTION_SCHEMA,
    HOTKEY_SCHEMA,
    STOCK_SCHEMA,
    STOCK_SYMBOLS,
    TOPOLOGY_BUILDERS,
    AuctionScenario,
    ChurnScenario,
    NetworkChurnScenario,
    SkewedHotKeyScenario,
    StockScenario,
    Topology,
    line_topology,
    make_topology,
    random_topology,
    star_topology,
    tree_topology,
)

__all__ = [
    "make_rng",
    "zipf_weights",
    "EventGenerator",
    "FulfilledPredicateSampler",
    "GeneralSubscriptionGenerator",
    "PaperSubscriptionGenerator",
    "AUCTION_SCHEMA",
    "HOTKEY_SCHEMA",
    "STOCK_SCHEMA",
    "STOCK_SYMBOLS",
    "TOPOLOGY_BUILDERS",
    "AuctionScenario",
    "ChurnScenario",
    "NetworkChurnScenario",
    "SkewedHotKeyScenario",
    "StockScenario",
    "Topology",
    "line_topology",
    "make_topology",
    "random_topology",
    "star_topology",
    "tree_topology",
]
