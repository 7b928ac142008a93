"""The simulation-component protocol.

Every stateful microarchitectural model in the simulator — caches, TLB,
branch predictors, the FDIP front end, the memory hierarchy, every
instruction prefetcher, and the statistics container — implements
:class:`SimComponent`:

``reset()``
    Return the component to its power-on state (geometry/configuration
    preserved, learned state dropped).
``stats_snapshot()``
    A small flat dict of derived observability metrics (occupancy,
    hit rates, accuracy).  Cheap enough to call mid-run; consumed by
    the interval probe bus and the ``repro probe`` CLI.

:class:`FrontEndSimulator` composes components through a
:class:`ComponentRegistry` rather than hand-wired attributes, so
whole-machine ``reset`` and ``stats_snapshot`` are one call each.
"""

from __future__ import annotations

from typing import Dict, Iterator, Tuple, TypeVar


class SimComponent:
    """Base class for every stateful simulator component."""

    def reset(self) -> None:
        """Return to the power-on state (configuration preserved)."""
        raise NotImplementedError(f"{type(self).__name__}.reset")

    def stats_snapshot(self) -> Dict[str, float]:
        """Flat derived-metric snapshot for observability probes."""
        return {}


C = TypeVar("C", bound=SimComponent)


class ComponentRegistry:
    """Ordered, typed registry of named :class:`SimComponent` instances.

    ``register`` returns the component it was given, so composition
    sites keep their direct (hot-path) attribute references::

        self.hierarchy = registry.register("hierarchy", MemoryHierarchy(...))

    The registry then provides whole-machine ``reset`` /
    ``stats_snapshot`` by delegating to every registered component in
    registration order.
    """

    def __init__(self) -> None:
        self._components: Dict[str, SimComponent] = {}

    def register(self, name: str, component: C) -> C:
        if not isinstance(component, SimComponent):
            raise TypeError(
                f"component {name!r} ({type(component).__name__}) does not "
                "implement SimComponent"
            )
        if name in self._components:
            raise ValueError(f"component {name!r} already registered")
        self._components[name] = component
        return component

    def __getitem__(self, name: str) -> SimComponent:
        return self._components[name]

    def __contains__(self, name: str) -> bool:
        return name in self._components

    def __len__(self) -> int:
        return len(self._components)

    def names(self) -> Tuple[str, ...]:
        return tuple(self._components)

    def items(self) -> Iterator[Tuple[str, SimComponent]]:
        return iter(self._components.items())

    # ------------------------------------------------------------------
    # Protocol delegation
    # ------------------------------------------------------------------
    def reset(self) -> None:
        for component in self._components.values():
            component.reset()

    def stats_snapshot(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for name, component in self._components.items():
            for key, value in component.stats_snapshot().items():
                out[f"{name}.{key}"] = value
        return out

    def __repr__(self) -> str:
        return f"ComponentRegistry({', '.join(self._components)})"
