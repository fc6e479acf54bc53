"""Typed protection queries served by :class:`~repro.service.ProtectionService`.

A :class:`ProtectionRequest` is the unit of work of the session API: it names
a registered method, a budget, and the per-query knobs (engine, seed, budget
division, lazy evaluation, target subset).  Requests are plain frozen
dataclasses — hashable (the server coalesces identical in-flight requests
on them), picklable and JSON round-trippable via
:meth:`ProtectionRequest.to_dict` / :meth:`ProtectionRequest.from_dict`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, Mapping, Optional, Tuple, Union

from repro.core.engines import ENGINE_NAMES
from repro.exceptions import ExperimentError
from repro.graphs.graph import Edge, canonical_edge
from repro.service.registry import get_method

__all__ = ["ProtectionRequest"]

#: Budget division: a strategy name, an explicit per-target mapping, or None
#: (= the method's default, e.g. TBD for ``CT-Greedy:TBD``).
DivisionLike = Union[str, Mapping[Edge, int], None]


@dataclass(frozen=True)
class ProtectionRequest:
    """One protection query against a session's shared index.

    Attributes
    ----------
    method:
        A registered method name (see :func:`repro.service.method_names`).
    budget:
        Deletion budget ``k``.
    engine:
        ``"coverage"`` (coverage kernel, default) or ``"recount"``.  The
        session serves the coverage engine from a copy of its pristine
        state; ``"recount"`` rebuilds by design (it *is* the naive
        baseline).
    seed:
        Random seed (used by the baselines; ignored by the greedy methods).
    budget_division:
        Optional override of the method's budget division — a strategy name
        or an explicit ``{target: sub-budget}`` mapping.
    lazy:
        Optional override of SGB's lazy (heap) evaluation.
    targets:
        Optional target subset to protect (must be a subset of the session's
        targets); ``None`` protects all of them.  A subset query still hides
        *all* of the session's targets in phase 1 — the non-subset targets
        are removed from the sub-problem's graph, never released — only the
        protector budget is focused on the subset.  Order is not
        significant: permutations of the same subset share one cached
        sub-session and return identical protector traces.
    label:
        Optional caller tag echoed through the result metadata.
    """

    method: str
    budget: int
    engine: str = "coverage"
    seed: int = 0
    budget_division: DivisionLike = None
    lazy: Optional[bool] = None
    targets: Optional[Tuple[Edge, ...]] = None
    label: Optional[str] = None

    def __post_init__(self) -> None:
        if self.targets is not None:
            object.__setattr__(
                self,
                "targets",
                tuple(canonical_edge(*target) for target in self.targets),
            )
        if isinstance(self.budget_division, Mapping):
            object.__setattr__(
                self,
                "budget_division",
                tuple(
                    (canonical_edge(*target), int(value))
                    for target, value in self.budget_division.items()
                ),
            )

    def validate(self) -> None:
        """Check method and engine against the live registries.

        Raises
        ------
        ExperimentError
            Listing the valid names, so typos are actionable.
        """
        get_method(self.method)  # raises with the registered names listed
        if self.engine not in ENGINE_NAMES:
            raise ExperimentError(
                f"unknown engine {self.engine!r}; valid engines: "
                f"{', '.join(ENGINE_NAMES)}"
            )
        if self.budget < 0:
            raise ExperimentError(f"budget must be >= 0, got {self.budget}")

    def division_mapping(self) -> DivisionLike:
        """Return ``budget_division`` with explicit divisions as a dict."""
        if isinstance(self.budget_division, tuple):
            return {target: value for target, value in self.budget_division}
        return self.budget_division

    def options(self) -> Dict[str, object]:
        """Return the free-form options forwarded to the method runner."""
        options: Dict[str, object] = {}
        division = self.division_mapping()
        if division is not None:
            options["budget_division"] = division
        if self.lazy is not None:
            options["lazy"] = self.lazy
        return options

    def with_overrides(self, **changes: Any) -> "ProtectionRequest":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """Return a JSON-serialisable dictionary (edge tuples become lists)."""
        payload: Dict[str, object] = {
            "method": self.method,
            "budget": self.budget,
            "engine": self.engine,
            "seed": self.seed,
        }
        if self.budget_division is not None:
            if isinstance(self.budget_division, str):
                payload["budget_division"] = self.budget_division
            else:
                payload["budget_division"] = [
                    [list(target), value] for target, value in self.budget_division
                ]
        if self.lazy is not None:
            payload["lazy"] = self.lazy
        if self.targets is not None:
            payload["targets"] = [list(target) for target in self.targets]
        if self.label is not None:
            payload["label"] = self.label
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "ProtectionRequest":
        """Rebuild a request from a :meth:`to_dict` payload (or parsed JSON)."""
        division = payload.get("budget_division")
        if isinstance(division, (list, tuple)):
            division = {tuple(target): int(value) for target, value in division}
        targets = payload.get("targets")
        return cls(
            method=payload["method"],
            budget=int(payload["budget"]),
            engine=payload.get("engine", "coverage"),
            seed=int(payload.get("seed", 0)),
            budget_division=division,
            lazy=payload.get("lazy"),
            targets=None
            if targets is None
            else tuple(tuple(target) for target in targets),
            label=payload.get("label"),
        )
