"""Pluggable system registry for the simulation façade.

Evaluated systems register themselves by name with the
:func:`register_system` decorator::

    @register_system("my-system")
    class MySystem(SLSSystem):
        ...

and are instantiated by name through :func:`create_system`.
``SYSTEM_FACTORIES`` is a live read-only mapping view of the registry.

This module must stay import-light (standard library only): the baseline
modules import it at class-definition time, before the rest of the package
has finished importing.  The built-in systems are pulled in lazily the first
time a name is resolved.
"""

from __future__ import annotations

import difflib
from typing import Callable, Dict, Iterable, Iterator, Mapping, Optional, Tuple, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from repro.config import SystemConfig
    from repro.sls.engine import SLSSystem

#: A factory builds a runnable system from a :class:`SystemConfig`.  The
#: registered classes themselves satisfy this signature.
SystemFactory = Callable[["SystemConfig"], "SLSSystem"]


class UnknownSystemError(KeyError):
    """Raised when a system name is not registered.

    Subclasses :class:`KeyError` so existing ``except KeyError`` call sites
    keep working, but renders a readable message (plain ``KeyError`` shows
    the repr of its argument) and suggests close matches.
    """

    def __init__(self, name: str, known: Iterable[str]) -> None:
        self.name = name
        self.known = tuple(sorted(known))
        message = f"unknown system {name!r}; expected one of: {', '.join(self.known)}"
        guesses = difflib.get_close_matches(str(name).lower(), self.known, n=1)
        if guesses:
            message += f" (did you mean {guesses[0]!r}?)"
        super().__init__(message)

    def __str__(self) -> str:
        return self.args[0]

    def __reduce__(self):
        # BaseException's default __reduce__ re-calls cls(*args) with only
        # the formatted message, which breaks the two-argument signature —
        # and an unpicklable exception raised in a multiprocessing worker
        # deadlocks the parent pool instead of propagating.
        return (type(self), (self.name, self.known))


class DuplicateSystemError(ValueError):
    """Raised when two different factories claim the same system name."""


_REGISTRY: Dict[str, SystemFactory] = {}
#: Bumped on every (un)registration.  Long-lived consumers that snapshot
#: registry state — the persistent sweep worker pool forks with the
#: registry baked in — compare generations to know when their snapshot is
#: stale and must be rebuilt.
_GENERATION = 0


def registry_generation() -> int:
    """Monotonic counter of registry mutations (see ``_GENERATION``)."""
    return _GENERATION
#: The names this package itself registers (and therefore guarantees are
#: always resolvable); user/plugin registrations are never snapshotted.
_BUILTIN_NAMES = ("pond", "pond+pm", "beacon", "recnmp", "tpp", "pifs-rec", "pifs-rec-nopm")
#: Snapshot of the built-in factories taken right after they load, used to
#: restore a built-in that a test unregistered.
_BUILTIN_SNAPSHOT: Dict[str, SystemFactory] = {}
_BUILTINS_LOADED = False


def register_system(
    name: str,
    factory: Optional[SystemFactory] = None,
    *,
    aliases: Tuple[str, ...] = (),
    replace: bool = False,
) -> Callable[[SystemFactory], SystemFactory]:
    """Register a system factory under ``name`` (case-insensitive).

    Usable as a decorator (``@register_system("pond")``) or called directly
    (``register_system("pond", PondSystem)``).  Re-registering the *same*
    factory is a no-op so modules may be re-imported; registering a
    *different* factory under a taken name raises
    :class:`DuplicateSystemError` unless ``replace=True``.
    """

    def _register(target: SystemFactory) -> SystemFactory:
        keys = [str(key).lower() for key in (name, *aliases)]
        # Validate every key before mutating anything, so a conflict on an
        # alias cannot leave a half-applied registration behind.
        for key in keys:
            existing = _REGISTRY.get(key)
            if existing is not None and existing is not target and not replace:
                # A module reload re-creates the class object; treat a
                # same-module, same-qualname registration as the re-import
                # no-op it is, not as a conflicting claim on the name.
                same_origin = (
                    getattr(existing, "__module__", None) == getattr(target, "__module__", object())
                    and getattr(existing, "__qualname__", None)
                    == getattr(target, "__qualname__", object())
                )
                if not same_origin:
                    raise DuplicateSystemError(
                        f"system name {key!r} is already registered to "
                        f"{getattr(existing, '__name__', existing)!r}; "
                        "pass replace=True to override"
                    )
        global _GENERATION
        for key in keys:
            _REGISTRY[key] = target
        _GENERATION += 1
        return target

    if factory is not None:
        return _register(factory)
    return _register


def unregister_system(name: str) -> None:
    """Remove a registration, including every alias of the same factory.

    Mainly for tests.  Built-in systems cannot be permanently removed —
    resolution and listings restore them from the built-in snapshot — so
    the registry cannot be left broken for the process; to change a
    built-in's behavior, use ``register_system(..., replace=True)``.
    """
    global _GENERATION
    factory = _REGISTRY.pop(str(name).lower(), None)
    if factory is not None:
        for alias in [key for key, value in _REGISTRY.items() if value is factory]:
            del _REGISTRY[alias]
        _GENERATION += 1


def _ensure_builtins() -> None:
    """Import the modules whose systems self-register via the decorator."""
    global _BUILTINS_LOADED
    if _BUILTINS_LOADED:
        return
    import repro.baselines  # noqa: F401  (registers pond, pond+pm, beacon, recnmp, tpp)
    import repro.pifs.system  # noqa: F401  (registers pifs-rec, pifs-rec-nopm)

    _BUILTIN_SNAPSHOT.update(
        {name: _REGISTRY[name] for name in _BUILTIN_NAMES if name in _REGISTRY}
    )
    _BUILTINS_LOADED = True


def _effective_registry() -> Dict[str, SystemFactory]:
    """The live registry with unregistered built-ins restored.

    Built-in systems cannot be permanently removed from a process — only
    replaced — so listing surfaces (``available_systems``, the
    ``SYSTEM_FACTORIES`` view, the CLI) and name resolution always agree.
    """
    _ensure_builtins()
    merged = dict(_BUILTIN_SNAPSHOT)
    merged.update(_REGISTRY)
    return merged


def system_factory(name: str) -> SystemFactory:
    """Resolve a registered factory by (case-insensitive) name."""
    registry = _effective_registry()
    key = str(name).lower()
    try:
        factory = registry[key]
    except KeyError:
        raise UnknownSystemError(name, registry) from None
    _REGISTRY.setdefault(key, factory)  # restore an unregistered built-in
    return factory


def create_system(name: str, system_config: "SystemConfig") -> "SLSSystem":
    """Instantiate a system by (case-insensitive) name."""
    return system_factory(name)(system_config)


def available_systems() -> Tuple[str, ...]:
    """Sorted names of every registered system."""
    return tuple(sorted(_effective_registry()))


class _RegistryView(Mapping):
    """Read-only live view of the registry, exported as ``SYSTEM_FACTORIES``."""

    def __getitem__(self, key: str) -> SystemFactory:
        return _effective_registry()[str(key).lower()]

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(_effective_registry()))

    def __len__(self) -> int:
        return len(_effective_registry())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SYSTEM_FACTORIES({sorted(_effective_registry())})"


#: Live name -> factory mapping view of the registry.
SYSTEM_FACTORIES: Mapping[str, SystemFactory] = _RegistryView()


__all__ = [
    "SystemFactory",
    "UnknownSystemError",
    "DuplicateSystemError",
    "register_system",
    "registry_generation",
    "unregister_system",
    "system_factory",
    "create_system",
    "available_systems",
    "SYSTEM_FACTORIES",
]
