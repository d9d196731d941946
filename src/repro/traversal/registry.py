"""Strategy registry: names -> traversal-strategy factories.

The registry maps the stable names used in job specs, the CLI and the
comparison engine onto constructor callables.  Built-ins register at
import; extensions call :func:`register_strategy` (last registration of
a name wins, mirroring the experiment-driver convention).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Union

from repro.errors import ConfigError
from repro.traversal.base import TraversalStrategy

_REGISTRY: Dict[str, Callable[[], TraversalStrategy]] = {}


def register_strategy(
    name: str, factory: Callable[[], TraversalStrategy]
) -> None:
    """Register (or replace) a strategy factory under ``name``."""
    if not name:
        raise ConfigError("strategy name must be non-empty")
    _REGISTRY[name.lower()] = factory


def available_strategies() -> List[str]:
    """Registered strategy names, sorted."""
    return sorted(_REGISTRY)


def resolve_strategy(
    spec: Union[str, TraversalStrategy, None],
) -> TraversalStrategy:
    """Resolve a name (or pass through an instance) to a strategy.

    ``None`` resolves to the default ``"sms"`` stack strategy.
    """
    if isinstance(spec, TraversalStrategy):
        return spec
    key = ("sms" if spec is None else str(spec)).lower().strip()
    factory = _REGISTRY.get(key)
    if factory is None:
        raise ConfigError(
            f"unknown traversal strategy {spec!r}; "
            f"available: {', '.join(available_strategies())}"
        )
    return factory()


def _register_builtins() -> None:
    from repro.traversal.reorder import ReorderStrategy
    from repro.traversal.stack_based import StackStrategy
    from repro.traversal.stackless import StacklessStrategy

    register_strategy("sms", StackStrategy)
    register_strategy("stackless", StacklessStrategy)
    register_strategy("reorder", ReorderStrategy)


_register_builtins()
