"""Static concurrency sanitizer for OpenMP configurations.

An analysis plane beside :mod:`repro.check` (dynamic invariants) and
:mod:`repro.lint` (config/AST rules): the ``RACE0xx``/``DLK0xx`` rules
flag configurations whose results are ordering-sensitive on a real
runtime, or that are deadlock- or starvation-prone, reasoning over
``Program x EnvConfig x MachineTopology`` with the resolved ICVs.

- :mod:`repro.sanitize.rules` — the rules (``RACE001+``/``DLK001+``),
- :mod:`repro.sanitize.runner` — orchestration for ``repro-omp
  sanitize`` and ``pytest -m sanitize``, with the error-only gate.

``docs/LINTING.md`` catalogs the rules and the gate.
"""

from repro.sanitize.rules import SANITIZE_RULES, sanitize_config
from repro.sanitize.runner import (
    SanitizeReport,
    run_sanitize,
    sanitize_environment,
    sanitize_manifests,
)

__all__ = [
    "SANITIZE_RULES",
    "SanitizeReport",
    "run_sanitize",
    "sanitize_config",
    "sanitize_environment",
    "sanitize_manifests",
]
