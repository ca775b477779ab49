"""Generic named-component registry with spec-string parsing.

Every pluggable component family in this package — healers, adversaries,
graph generators, wave-size schedules, and metrics — is published through
one :class:`Registry` instance mapping short names to factories. This
module is the single implementation behind all of them; it owns the two
concerns that used to be re-implemented (three times!) at each call site:

**Spec strings.** A component reference is either a bare registry name
(``"dash"``) or a *spec string* carrying constructor arguments inline::

    "random-wave:size=8,schedule=geometric"
    "erdos_renyi:p=0.1"
    "constant:8"                       # positional arguments allowed
    "connectivity:period=4"

:func:`parse_spec` splits the name at the first ``":"`` and the argument
list on ``","``; each ``key=value`` token becomes a keyword argument and
each bare token a positional one. Values are coerced with
:func:`ast.literal_eval` where possible (``8`` → int, ``0.1`` → float,
``(1, 2)`` → tuple, case-insensitive ``true``/``false``/``none``) and kept
as strings otherwise — which is exactly what lets specs nest: the
``schedule=geometric:initial=4`` token stays the string
``"geometric:initial=4"`` and is parsed again by the wave-schedule
registry. (Nested specs cannot contain ``","``; pass structured params —
e.g. ``ExperimentSpec.adversary_params`` — for multi-argument nesting.)

**Seed injection.** Stochastic components take an explicit ``seed``
argument; deterministic ones don't. :meth:`Registry.make` injects a
caller-derived seed if — and only if — the factory accepts one and the
spec didn't already pin it, replacing the per-call-site
``inspect.signature`` probing the experiment runner and CLI used to do.

Registries behave as read-only mappings (``"dash" in HEALERS``,
``sorted(HEALERS)``, ``HEALERS["dash"]``), so all pre-existing dict-style
call sites keep working.

The registry *instances* live next to their component families —
:data:`repro.core.registry.HEALERS`, :data:`repro.adversary.ADVERSARIES`,
:data:`repro.graph.generators.GENERATORS`,
:data:`repro.adversary.waves.WAVE_SCHEDULES`,
:data:`repro.sim.metrics.METRICS` — and :func:`component_registries`
collects them all (lazily, to keep this module import-cycle-free).
"""

from __future__ import annotations

import ast
import inspect
from collections.abc import Mapping
from typing import Callable, Iterator

from repro.errors import ConfigurationError

__all__ = ["Registry", "parse_spec", "component_registries"]


def _coerce(text: str) -> object:
    """Best-effort literal coercion of one spec-string value."""
    t = text.strip()
    low = t.lower()
    if low in ("true", "false", "none"):
        return {"true": True, "false": False, "none": None}[low]
    try:
        return ast.literal_eval(t)
    except (ValueError, SyntaxError):
        return t


def _split_args(text: str) -> list[str]:
    """Split a spec's argument list on commas, bracket-aware.

    Commas inside ``()``/``[]``/``{}`` belong to a literal value
    (``script=(0, 1)``) and do not separate tokens.
    """
    tokens: list[str] = []
    depth = 0
    start = 0
    for i, ch in enumerate(text):
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
        elif ch == "," and depth == 0:
            tokens.append(text[start:i])
            start = i + 1
    tokens.append(text[start:])
    return tokens


def parse_spec(spec: str) -> tuple[str, tuple[object, ...], dict[str, object]]:
    """Split a spec string into ``(name, args, kwargs)``.

    ``"neighbor-of-max"`` → ``("neighbor-of-max", (), {})``;
    ``"random-wave:size=8,schedule=geometric"`` →
    ``("random-wave", (), {"size": 8, "schedule": "geometric"})``;
    ``"constant:8"`` → ``("constant", (8,), {})``. Raises
    :class:`~repro.errors.ConfigurationError` on malformed input
    (empty name, empty token, non-identifier key, positional after
    keyword).
    """
    if not isinstance(spec, str):
        raise ConfigurationError(
            f"component spec must be a string, got {spec!r}"
        )
    name, sep, rest = spec.partition(":")
    name = name.strip()
    if not name:
        raise ConfigurationError(f"component spec has no name: {spec!r}")
    args: list[object] = []
    kwargs: dict[str, object] = {}
    if sep and not rest.strip():
        raise ConfigurationError(
            f"component spec has a trailing ':': {spec!r}"
        )
    if rest.strip():
        for token in _split_args(rest):
            token = token.strip()
            if not token:
                raise ConfigurationError(
                    f"component spec has an empty argument token: {spec!r}"
                )
            key, eq, value = token.partition("=")
            if eq:
                key = key.strip()
                if not key.isidentifier():
                    raise ConfigurationError(
                        f"bad argument name {key!r} in spec {spec!r}"
                    )
                if not value.strip():
                    raise ConfigurationError(
                        f"empty value for argument {key!r} in spec {spec!r}"
                    )
                if key in kwargs:
                    raise ConfigurationError(
                        f"duplicate argument {key!r} in spec {spec!r}"
                    )
                kwargs[key] = _coerce(value)
            else:
                if kwargs:
                    raise ConfigurationError(
                        f"positional argument {token!r} after keyword "
                        f"arguments in spec {spec!r}"
                    )
                args.append(_coerce(token))
    return name, tuple(args), kwargs


class Registry(Mapping):
    """Name → factory mapping for one pluggable component family.

    Parameters
    ----------
    kind:
        Human-readable family name used in error messages
        (``"healer"``, ``"adversary"``, ...).
    initial:
        Optional ``{name: factory}`` seed content.
    injected:
        Parameter names supplied later by the runtime (``seed`` for the
        seeded families, ``n`` for generators): :meth:`validate_spec`
        does not count them as missing.

    A factory is any callable returning the component — typically the
    component class itself. Lookup is dict-like; construction goes
    through :meth:`make`, which understands spec strings and centralizes
    seed injection.
    """

    def __init__(
        self,
        kind: str,
        initial: Mapping[str, Callable] | None = None,
        *,
        injected: tuple[str, ...] = (),
    ) -> None:
        self.kind = kind
        self.injected = frozenset(injected)
        self._factories: dict[str, Callable] = dict(initial or {})
        self._signatures: dict[str, inspect.Signature | None] = {}

    # ------------------------------------------------------------------
    # Mapping protocol (read-only dict compatibility)
    # ------------------------------------------------------------------
    def __getitem__(self, name: str) -> Callable:
        return self._factories[name]

    def __iter__(self) -> Iterator[str]:
        return iter(self._factories)

    def __len__(self) -> int:
        return len(self._factories)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Registry({self.kind!r}, {self.names()})"

    # ------------------------------------------------------------------
    # Registration and lookup
    # ------------------------------------------------------------------
    def register(self, name: str, factory: Callable | None = None):
        """Register ``factory`` under ``name``; usable as a decorator.

        Re-registering an existing name raises (shadowing a component
        silently is a debugging nightmare); deleting is not supported.
        """
        def _add(fn: Callable) -> Callable:
            if name in self._factories:
                raise ConfigurationError(
                    f"{self.kind} {name!r} is already registered"
                )
            self._factories[name] = fn
            return fn

        return _add if factory is None else _add(factory)

    def alias(self, alias: str, name: str) -> None:
        """Register ``alias`` as a second name for an existing component.

        The alias shares the original's factory, so spec parsing,
        signature probing, and seed/force injection all behave
        identically (``"pa:n=100,m=3"`` ≡
        ``"preferential_attachment:n=100,m=3"``). Aliases show up in
        :meth:`names` like any other entry.
        """
        self.register(alias, self.factory(name))

    def names(self) -> list[str]:
        """All registered names, sorted."""
        return sorted(self._factories)

    def factory(self, name: str) -> Callable:
        """The factory for ``name``, with a helpful error on a miss."""
        try:
            return self._factories[name]
        except KeyError:
            raise ConfigurationError(
                f"unknown {self.kind} {name!r}; "
                f"available: {', '.join(self.names())}"
            ) from None

    def _signature(self, name: str) -> inspect.Signature | None:
        if name not in self._signatures:
            try:
                self._signatures[name] = inspect.signature(self.factory(name))
            except (TypeError, ValueError):  # pragma: no cover - C factories
                self._signatures[name] = None
        return self._signatures[name]

    def accepts(self, name: str, param: str) -> bool:
        """Whether ``name``'s factory takes a parameter called ``param``."""
        sig = self._signature(name)
        if sig is None:
            return False
        p = sig.parameters.get(param)
        return p is not None and p.kind not in (
            inspect.Parameter.VAR_POSITIONAL,
            inspect.Parameter.VAR_KEYWORD,
        )

    # ------------------------------------------------------------------
    # Spec strings
    # ------------------------------------------------------------------
    def parse(
        self, spec: str
    ) -> tuple[str, tuple[object, ...], dict[str, object]]:
        """:func:`parse_spec` plus an unknown-name check."""
        name, args, kwargs = parse_spec(spec)
        self.factory(name)  # raises with the available names on a miss
        return name, args, kwargs

    def _arguments(
        self, spec: str, overrides: Mapping[str, object] | None
    ) -> tuple[str, tuple[object, ...], dict[str, object]]:
        """The spec's ``(name, args, kwargs)`` with ``overrides`` merged
        into the keyword arguments — what :meth:`validate_spec` checks
        and :meth:`make` builds from."""
        name, args, kwargs = self.parse(spec)
        if overrides:
            kwargs.update(overrides)
        return name, args, kwargs

    def validate_spec(
        self,
        spec: str,
        *,
        overrides: Mapping[str, object] | None = None,
        reserved: tuple[str, ...] = (),
    ) -> str:
        """Fail fast on a bad spec; returns the component name.

        Checks that the name is registered, that the spec's arguments
        (merged with ``overrides``) bind to the factory signature, that
        no required parameter is left unfilled (runtime-``injected``
        names excluded), and that no ``reserved`` parameter — one the
        runtime will later ``force``, e.g. a sweep's per-cell ``n`` — is
        pinned by the spec. So an :class:`ExperimentSpec` typo explodes
        at construction, not deep inside a worker process.
        """
        name, args, kwargs = self._arguments(spec, overrides)
        sig = self._signature(name)
        if sig is not None:
            try:
                bound = sig.bind_partial(*args, **kwargs)
            except TypeError as exc:
                raise ConfigurationError(
                    f"invalid {self.kind} spec {spec!r}: {exc}"
                ) from None
            clash = [
                key
                for key in reserved
                if self.accepts(name, key) and key in bound.arguments
            ]
            if clash:
                raise ConfigurationError(
                    f"invalid {self.kind} spec {spec!r}: "
                    f"{', '.join(clash)} is supplied by the runtime — "
                    "remove it from the spec"
                )
            missing = [
                p.name
                for p in sig.parameters.values()
                if p.default is inspect.Parameter.empty
                and p.kind
                in (
                    inspect.Parameter.POSITIONAL_ONLY,
                    inspect.Parameter.POSITIONAL_OR_KEYWORD,
                    inspect.Parameter.KEYWORD_ONLY,
                )
                and p.name not in bound.arguments
                and p.name not in self.injected
            ]
            if missing:
                raise ConfigurationError(
                    f"invalid {self.kind} spec {spec!r}: missing required "
                    f"argument(s) {', '.join(missing)}"
                )
        return name

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def make(
        self,
        spec: str,
        *,
        seed: int | None = None,
        overrides: Mapping[str, object] | None = None,
        defaults: Mapping[str, object] | None = None,
        force: Mapping[str, object] | None = None,
    ):
        """Instantiate a component from a name or spec string.

        Argument layering, lowest to highest precedence:

        * ``defaults`` — applied (``setdefault``) only where the factory
          accepts the parameter and the spec didn't set it;
        * the spec string's own arguments, updated by ``overrides``
          (structured params, e.g. ``ExperimentSpec.adversary_params``);
        * ``force`` — runtime-owned values (the experiment runner forces
          ``n`` per sweep cell this way), gated on factory acceptance; a
          spec that pins a forced parameter raises rather than silently
          winning or losing;
        * ``seed`` — injected via ``setdefault`` iff the factory accepts a
          ``seed`` parameter (the centralized seeding discipline).
        """
        name, args, kwargs = self._arguments(spec, overrides)
        # Parameter names already consumed by the spec's positional args:
        # injection must never collide with them.
        positional: set[str] = set()
        sig = self._signature(name)
        if sig is not None and args:
            try:
                positional = set(sig.bind_partial(*args).arguments)
            except TypeError as exc:
                raise ConfigurationError(
                    f"invalid {self.kind} spec {spec!r}: {exc}"
                ) from None
        if force:
            for key, value in force.items():
                if not self.accepts(name, key):
                    continue
                if key in positional or key in kwargs:
                    raise ConfigurationError(
                        f"invalid {self.kind} spec {spec!r}: {key} is "
                        "supplied by the runtime — remove it from the spec"
                    )
                kwargs[key] = value
        if defaults:
            for key, value in defaults.items():
                if self.accepts(name, key) and key not in positional:
                    kwargs.setdefault(key, value)
        if seed is not None and self.accepts(
            name, "seed"
        ) and "seed" not in positional:
            kwargs.setdefault("seed", seed)
        try:
            component = self.factory(name)(*args, **kwargs)
        except TypeError as exc:
            raise ConfigurationError(
                f"cannot build {self.kind} {spec!r}: {exc}"
            ) from exc
        # Provenance: record how the component was built so a checkpoint
        # can rebuild an equivalent instance at resume (the arguments
        # *after* injection — same seed, same forced values). Components
        # with __slots__ (e.g. Graph) simply go without.
        try:
            component._registry_provenance = {
                "registry": self.kind,
                "name": name,
                "args": list(args),
                "kwargs": dict(kwargs),
            }
        except (AttributeError, TypeError):
            pass
        return component


def component_registries() -> dict[str, Registry]:
    """Every component registry in the package, keyed by family.

    Imported lazily so this module stays dependency-free (the domain
    modules import :class:`Registry` from here).
    """
    from repro.adversary import ADVERSARIES
    from repro.adversary.waves import WAVE_SCHEDULES
    from repro.core.registry import HEALERS
    from repro.graph.generators import GENERATORS
    from repro.sim.metrics import METRICS

    return {
        "healer": HEALERS,
        "adversary": ADVERSARIES,
        "generator": GENERATORS,
        "wave-schedule": WAVE_SCHEDULES,
        "metric": METRICS,
    }
