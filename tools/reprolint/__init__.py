"""reprolint: repo-specific static analysis for the TPP reproduction.

Seven rule families encode the invariants every PR so far proved
dynamically with differential tests, so future changes fail fast at lint
time instead of breaking bit-identity at runtime:

* **R1 determinism** — no hash-ordered set iteration, no global RNG.
* **R2 numpy-boundary** — no numpy scalars escaping public returns.
* **R3 lock-discipline** — ``guarded-by(LOCK)`` attributes written only
  under ``with self.LOCK:``.
* **R5 exception-taxonomy** — typed ``repro.exceptions``, not bare
  ``ValueError``.
* **R6 bench-schema** — committed BENCH reports follow the benchmark
  harness's report schema, which the CI regression gate reads.
* **R7 native-boundary** — ``ctypes`` only inside ``repro._native``,
  every bound symbol declared (``argtypes`` + ``restype``), native calls
  behind the kernel-dispatch guard.
* **R8 subset-restriction** — service code never assembles an index
  itself (no ``TargetSubgraphIndex(...)`` or private assembly hooks in
  ``repro/service/``).

(R4, pickle safety for process-pool tasks, was retired with the last
process pool; the other families keep their numbers so existing
suppressions stay valid.)

Run ``python -m tools.reprolint src/repro``; suppress a finding with
``# reprolint: disable=RULE(reason)`` — the reason is mandatory.
"""

from tools.reprolint.driver import lint_paths, lint_source, main
from tools.reprolint.findings import Finding
from tools.reprolint.rules import ALL_RULES, RULES_BY_FAMILY

__all__ = [
    "ALL_RULES",
    "RULES_BY_FAMILY",
    "Finding",
    "lint_paths",
    "lint_source",
    "main",
]
