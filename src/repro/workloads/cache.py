"""Memoized access to generated applications and traces.

Binary generation takes ~1s and trace generation a few seconds per
workload; experiments run the same trace under many prefetchers, so
both are cached (applications by name, traces by (name, scale, seed),
small LRU to bound memory).
"""

from __future__ import annotations

import os
from collections import OrderedDict
from typing import Dict

from repro.workloads.appmodel import Application
from repro.workloads.suite import build_application, requests_for
from repro.workloads.trace import Trace

_APPS: Dict[str, Application] = {}
_TRACES: OrderedDict = OrderedDict()

_ENV_TRACE_CACHE = "REPRO_TRACE_CACHE"
#: Traces kept in memory when ``REPRO_TRACE_CACHE`` is unset.
DEFAULT_TRACE_CACHE = 6


def trace_cache_max() -> int:
    """LRU bound for memoized traces.

    The default of 6 suits single-figure runs; full-grid sweeps touch
    all 11 workloads round-robin and would evict every entry before its
    reuse, so the bound is overridable via ``REPRO_TRACE_CACHE``.  A
    value that is not a positive integer is an
    :class:`~repro.experiments.errors.InvalidConfigError`.
    """
    # Capacity only: eviction changes memory use, never the trace
    # contents, so this env read cannot perturb simulated results.
    raw = os.environ.get(_ENV_TRACE_CACHE, "").strip()  # lint: allow[determinism]
    if not raw:
        return DEFAULT_TRACE_CACHE
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value < 1:
        # Imported here: repro.experiments imports this module.
        from repro.experiments.errors import InvalidConfigError

        raise InvalidConfigError(
            f"{_ENV_TRACE_CACHE}={raw!r} is not a positive integer "
            "(the number of traces kept in memory)")
    return value


def get_application(name: str) -> Application:
    """Build (once) and return the named application."""
    app = _APPS.get(name)
    if app is None:
        app = build_application(name)
        _APPS[name] = app
    return app


def get_trace(name: str, scale: str = "bench", seed: int = 1) -> Trace:
    """Build (once) and return the trace for (workload, scale, seed)."""
    key = (name, scale, seed)
    trace = _TRACES.get(key)
    if trace is not None:
        _TRACES.move_to_end(key)
        return trace
    app = get_application(name)
    trace = app.trace(requests_for(name, scale), seed=seed)
    install_trace(name, scale, seed, trace)
    return trace


def install_trace(name: str, scale: str, seed: int, trace: Trace) -> None:
    """Memoize ``trace`` as the trace of (workload, scale, seed),
    replacing any memoized one (a sweep worker installs a loaded input
    artifact this way; see :mod:`repro.experiments.inputs`)."""
    key = (name, scale, seed)
    _TRACES[key] = trace
    _TRACES.move_to_end(key)
    while len(_TRACES) > trace_cache_max():
        _TRACES.popitem(last=False)


def clear_caches() -> None:
    """Drop all cached applications and traces (tests/memory pressure)."""
    _APPS.clear()
    _TRACES.clear()
