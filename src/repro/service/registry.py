"""Decorator-based protection-method registry.

The paper's evaluation speaks a fixed vocabulary of seven method names
(``SGB-Greedy``, ``CT-Greedy:TBD``, ... ``RD``, ``RDT``).  Earlier revisions
hard-coded that vocabulary in two hand-maintained dicts plus a duplicated
ordering tuple; this module replaces them with a single registry that
downstream users can extend::

    from repro.service import register_method

    @register_method("CT-Greedy:UNIFORM", kind="greedy", order=45)
    def _run_ct_uniform(problem, budget, engine, seed, **options):
        return ct_greedy(problem, budget, budget_division="uniform", engine=engine)

Registered runners all share one signature::

    runner(problem, budget, engine, seed, **options) -> ProtectionResult

where ``engine`` is an engine name *or* an already-constructed
:class:`~repro.core.engines.MarginalGainEngine` (the session API injects
engines built on a copy of its pristine coverage state), and ``options`` are
the free-form per-request options (``budget_division``, ``lazy``, ...) a
:class:`~repro.service.requests.ProtectionRequest` carries.  Runners must
ignore options they do not understand (accept ``**options``).

Ordering: :func:`method_names` sorts by the ``order`` given at registration
(ties by registration sequence), which is how the paper's legend order is
derived instead of being duplicated by hand.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, Optional, Tuple

from repro.core.model import ProtectionResult
from repro.exceptions import ExperimentError

__all__ = [
    "MethodRunner",
    "MethodSpec",
    "register_method",
    "unregister_method",
    "get_method",
    "method_names",
    "greedy_method_names",
    "baseline_method_names",
    "is_greedy_method",
    "iter_methods",
]

#: Signature every registered runner implements.
MethodRunner = Callable[..., ProtectionResult]

_KINDS = ("greedy", "baseline")


@dataclass(frozen=True)
class MethodSpec:
    """One registered protection method.

    Attributes
    ----------
    name:
        Registry key, the paper-legend label (e.g. ``"CT-Greedy:TBD"``).
    runner:
        The callable executing the method (see module docstring signature).
    kind:
        ``"greedy"`` (deterministic, engine-sensitive) or ``"baseline"``
        (randomized, seed-sensitive).
    order:
        Legend sort position; :func:`method_names` sorts ascending.
    description:
        One-line human-readable description (shown by CLI errors/docs).
    sequence:
        Registration sequence number (tie-break for equal ``order``).
    """

    name: str
    runner: MethodRunner
    kind: str
    order: int
    description: str = ""
    sequence: int = field(default=0, compare=False)

    @property
    def is_greedy(self) -> bool:
        return self.kind == "greedy"


_REGISTRY: Dict[str, MethodSpec] = {}
_SEQUENCE = 0


def register_method(
    name: str,
    kind: str = "greedy",
    order: Optional[int] = None,
    description: str = "",
    replace: bool = False,
) -> Callable[[MethodRunner], MethodRunner]:
    """Return a decorator registering a protection-method runner under ``name``.

    Parameters
    ----------
    name:
        Registry key.  Registering an existing name raises
        :class:`~repro.exceptions.ExperimentError` unless ``replace=True``.
    kind:
        ``"greedy"`` or ``"baseline"``.
    order:
        Legend sort position; defaults to after every already-registered
        method.
    description:
        One-line description surfaced by CLI validation errors.
    replace:
        Allow overriding an existing registration (used by tests/plugins).
    """
    if kind not in _KINDS:
        raise ExperimentError(f"method kind must be one of {_KINDS}, got {kind!r}")

    def decorator(runner: MethodRunner) -> MethodRunner:
        global _SEQUENCE
        if name in _REGISTRY and not replace:
            raise ExperimentError(
                f"method {name!r} is already registered; pass replace=True to override"
            )
        _SEQUENCE += 1
        position = order if order is not None else _SEQUENCE * 100
        _REGISTRY[name] = MethodSpec(
            name=name,
            runner=runner,
            kind=kind,
            order=position,
            description=description,
            sequence=_SEQUENCE,
        )
        return runner

    return decorator


def unregister_method(name: str) -> None:
    """Remove a registration (primarily for tests and plugin teardown)."""
    _REGISTRY.pop(name, None)


def get_method(name: str) -> MethodSpec:
    """Return the :class:`MethodSpec` registered under ``name``.

    Raises
    ------
    ExperimentError
        With the full list of valid names, when ``name`` is unknown.
    """
    spec = _REGISTRY.get(name)
    if spec is None:
        raise ExperimentError(
            f"unknown method {name!r}; registered methods: {', '.join(method_names())}"
        )
    return spec


def iter_methods() -> Iterator[MethodSpec]:
    """Yield every registered spec in legend (``order``) order."""
    yield from sorted(_REGISTRY.values(), key=lambda spec: (spec.order, spec.sequence))


def method_names() -> Tuple[str, ...]:
    """Return every registered method name in legend order."""
    return tuple(spec.name for spec in iter_methods())


def greedy_method_names() -> Tuple[str, ...]:
    """Return the registered greedy method names in legend order."""
    return tuple(spec.name for spec in iter_methods() if spec.is_greedy)


def baseline_method_names() -> Tuple[str, ...]:
    """Return the registered baseline method names in legend order."""
    return tuple(spec.name for spec in iter_methods() if not spec.is_greedy)


def is_greedy_method(name: str) -> bool:
    """Return whether ``name`` is registered as a greedy method."""
    spec = _REGISTRY.get(name)
    return spec is not None and spec.is_greedy
