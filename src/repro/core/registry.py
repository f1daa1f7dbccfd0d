"""Engine registry: construct matching engines from declarative specs.

The paper motivates deployments on heterogeneous peer devices (§1),
which makes engine choice a *configuration* concern: a broker on a
laptop may run the paged engine, a well-equipped hub the in-memory
non-canonical engine, and an experiment sweeps all of them.  This module
turns that choice into data — a string name or an :class:`EngineSpec` —
so callers never import concrete engine classes:

>>> from repro.core.registry import build_engine
>>> build_engine("counting").name
'counting'

Canonical names
---------------
``"noncanonical"``, ``"counting"``, ``"counting-variant"``,
``"matching-tree"``, ``"bruteforce"``, ``"paged"``.  Each engine's
human-readable :attr:`~repro.core.base.FilterEngine.name` (e.g.
``"non-canonical"``, ``"brute-force"``, ``"non-canonical-paged"``) is
accepted as an alias and normalized to the canonical form.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, Callable, Mapping

from ..indexes.manager import IndexManager
from ..predicates.registry import PredicateRegistry
from .base import FilterEngine
from .bruteforce import BruteForceEngine
from .counting import CountingEngine, CountingVariantEngine
from .matching_tree import MatchingTreeEngine
from .noncanonical import NonCanonicalEngine
from .paged import DiskTreeStore, PagedNonCanonicalEngine

EngineFactory = Callable[..., FilterEngine]


def _build_paged(
    *,
    registry: PredicateRegistry | None = None,
    indexes: IndexManager | None = None,
    store: DiskTreeStore | None = None,
    path: str | None = None,
    page_size: int | None = None,
    cache_pages: int | None = None,
    **options: Any,
) -> PagedNonCanonicalEngine:
    """Paged-engine factory: store options spell out the disk store."""
    if store is None and (path, page_size, cache_pages) != (None, None, None):
        store_options: dict[str, Any] = {}
        if page_size is not None:
            store_options["page_size"] = page_size
        if cache_pages is not None:
            store_options["cache_pages"] = cache_pages
        store = DiskTreeStore(path, **store_options)
    return PagedNonCanonicalEngine(
        store=store, registry=registry, indexes=indexes, **options
    )


#: canonical name -> factory(**options, registry=..., indexes=...)
_FACTORIES: dict[str, EngineFactory] = {
    "noncanonical": NonCanonicalEngine,
    "counting": CountingEngine,
    "counting-variant": CountingVariantEngine,
    "matching-tree": MatchingTreeEngine,
    "bruteforce": BruteForceEngine,
    "paged": _build_paged,
}
#: alias (including the canonical name itself) -> canonical name
_ALIASES: dict[str, str] = {
    **{name: name for name in _FACTORIES},
    "non-canonical": "noncanonical",
    "brute-force": "bruteforce",
    "non-canonical-paged": "paged",
}
#: concrete engine class -> canonical name (for :func:`spec_of`)
_CLASSES: dict[type, str] = {
    NonCanonicalEngine: "noncanonical",
    CountingEngine: "counting",
    CountingVariantEngine: "counting-variant",
    MatchingTreeEngine: "matching-tree",
    BruteForceEngine: "bruteforce",
    PagedNonCanonicalEngine: "paged",
}


class UnknownEngineError(KeyError):
    """Raised when an engine name is not in the registry."""

    def __init__(self, name: str) -> None:
        super().__init__(
            f"unknown engine {name!r}; engines: "
            f"{', '.join(engine_names())}"
        )
        self.name = name


def canonical_engine_name(name: str) -> str:
    """Resolve ``name`` (canonical or alias) to its canonical form."""
    try:
        return _ALIASES[name]
    except KeyError:
        raise UnknownEngineError(name) from None


def engine_names() -> tuple[str, ...]:
    """The canonical engine names, in table order."""
    return tuple(_FACTORIES)


#: ``"name×4"`` / ``"name x4"`` — the sharded-spec name shorthand.
_SHARD_SHORTHAND = re.compile(r"^(?P<base>.*?)\s*[×x]\s*(?P<count>\d+)$")


@dataclass(frozen=True)
class EngineSpec:
    """A declarative engine configuration: a name plus constructor options.

    Specs are plain data — they serialize, compare, and sweep.  The name
    is normalized to canonical form on construction, so
    ``EngineSpec("non-canonical") == EngineSpec("noncanonical")``.

    >>> spec = EngineSpec("noncanonical", {"codec": "varint"})
    >>> spec.build().name
    'non-canonical'

    Two reserved options describe the **sharded runtime** rather than
    the inner engine: ``shards`` (partition the subscriptions across
    that many inner engines, see :mod:`repro.core.sharded`) and
    ``partitioner`` (the subscription placement strategy, default
    ``"hash"``; ``"routed"`` adds event-space shard pruning).  Beside
    ``shards``, ``executor`` is accepted with the value ``"serial"``
    only: shards always run in-process.
    ``EngineSpec("noncanonical×4")`` is shorthand for
    ``EngineSpec("noncanonical", {"shards": 4})`` — sharded configs
    serialize, compare, and sweep like any engine.
    """

    name: str
    options: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        name = self.name
        options = dict(self.options)
        try:
            canonical = canonical_engine_name(name)
        except UnknownEngineError:
            shorthand = _SHARD_SHORTHAND.match(name)
            if shorthand is None:
                raise
            canonical = canonical_engine_name(shorthand.group("base"))
            count = int(shorthand.group("count"))
            if options.get("shards", count) != count:
                raise ValueError(
                    f"spec name {name!r} says {count} shards but options "
                    f"say shards={options['shards']}"
                )
            options["shards"] = count
        object.__setattr__(self, "name", canonical)
        object.__setattr__(self, "options", MappingProxyType(options))

    def build(
        self,
        *,
        registry: PredicateRegistry | None = None,
        indexes: IndexManager | None = None,
    ) -> FilterEngine:
        """Construct the engine, optionally on shared phase-1 state.

        A spec carrying ``shards`` builds a
        :class:`~repro.core.sharded.ShardedEngine` whose inner shards
        are built from the remaining options.
        """
        options = dict(self.options)
        shards = options.pop("shards", None)
        partitioner = options.pop("partitioner", None)
        executor = options.pop("executor", None)
        if shards is not None:
            from .sharded import ShardedEngine

            if executor not in (None, "serial"):
                raise ValueError(
                    f"executor={executor!r} is not available: shards run "
                    "in-process, in one loop, and 'serial' is the only executor"
                )
            return ShardedEngine(
                EngineSpec(self.name, options),
                shards=shards,
                partitioner=partitioner if partitioner is not None else "hash",
                registry=registry,
                indexes=indexes,
            )
        if executor is not None:
            raise ValueError(
                "the executor= option is only meaningful together with shards="
            )
        if partitioner is not None:
            raise ValueError(
                "the partitioner= option is only meaningful together with "
                "shards="
            )
        return _FACTORIES[self.name](registry=registry, indexes=indexes, **options)

    def with_options(self, **options: Any) -> EngineSpec:
        """A copy of this spec with extra/overridden options."""
        return EngineSpec(self.name, {**self.options, **options})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EngineSpec):
            return NotImplemented
        return self.name == other.name and dict(self.options) == dict(other.options)

    def __hash__(self) -> int:
        return hash((self.name, tuple(sorted(self.options))))


def build_engine(
    spec: EngineSpec | str,
    *,
    registry: PredicateRegistry | None = None,
    indexes: IndexManager | None = None,
    **options: Any,
) -> FilterEngine:
    """Construct an engine from a spec or a (canonical or alias) name.

    Keyword ``options`` extend/override the spec's own options.
    """
    if isinstance(spec, str):
        spec = EngineSpec(spec)
    if options:
        spec = spec.with_options(**options)
    return spec.build(registry=registry, indexes=indexes)


def resolve_engine(
    engine: FilterEngine | EngineSpec | str | None,
    *,
    default: EngineSpec | str = "noncanonical",
    registry: PredicateRegistry | None = None,
    indexes: IndexManager | None = None,
) -> FilterEngine:
    """Accept an engine instance, a spec, a name, or ``None`` (default).

    The single normalization point behind every API surface that takes
    an ``engine`` argument (:class:`~repro.broker.broker.Broker`, the
    overlay network, the experiment harness).
    """
    if engine is None:
        engine = default
    if isinstance(engine, FilterEngine):
        return engine
    if isinstance(engine, (str, EngineSpec)):
        return build_engine(engine, registry=registry, indexes=indexes)
    raise TypeError(f"expected an engine instance, EngineSpec, or name; got {engine!r}")


def engine_catalog() -> dict[str, type]:
    """Engine display name -> engine class, derived from the registry.

    The single source of truth behind ``repro.core.ENGINES``; one entry
    per registry engine.
    """
    return {cls.name: cls for cls in _CLASSES}


def spec_of(engine: FilterEngine) -> EngineSpec:
    """The canonical spec naming ``engine``'s kind.

    Captures engine *identity*, not construction options — round-trips
    the name (``build_engine(name)`` → ``spec_of(...)`` → same name).
    For a sharded engine, identity includes the partitioning itself:
    inner-engine name plus ``shards`` (and ``partitioner`` when it
    differs from the ``"hash"`` default, keeping pre-routing specs
    round-trip-stable).
    """
    from .sharded import ShardedEngine

    if isinstance(engine, ShardedEngine):
        options: dict[str, Any] = {"shards": engine.shard_count}
        if engine.partitioner.name != "hash":
            options["partitioner"] = engine.partitioner.name
        return EngineSpec(engine.spec.name, options)
    name = _CLASSES.get(type(engine))
    if name is None:
        name = _ALIASES.get(engine.name)
    if name is None:
        raise UnknownEngineError(engine.name)
    return EngineSpec(name)
