"""Service layer: the session API for serving many protection queries.

This is the library's primary entry point since the API redesign:
construct a :class:`ProtectionService` once per ``(graph, targets, motif)``
instance, then :meth:`~ProtectionService.solve` /
:meth:`~ProtectionService.solve_many` typed
:class:`ProtectionRequest` queries against the shared index.  The method
vocabulary is extensible through the decorator registry
(:func:`register_method`); the built-in seven methods of the paper's
evaluation are registered on import.
"""

from repro.service import builtin  # noqa: F401  (registers built-in methods)
from repro.service.registry import (
    MethodRunner,
    MethodSpec,
    baseline_method_names,
    get_method,
    greedy_method_names,
    is_greedy_method,
    iter_methods,
    method_names,
    register_method,
    unregister_method,
)
from repro.service.requests import ProtectionRequest
from repro.service.service import ProtectionService

__all__ = [
    "ProtectionService",
    "ProtectionRequest",
    "MethodSpec",
    "MethodRunner",
    "register_method",
    "unregister_method",
    "get_method",
    "iter_methods",
    "method_names",
    "greedy_method_names",
    "baseline_method_names",
    "is_greedy_method",
]
