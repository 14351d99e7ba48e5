"""Built-in analysis rules.

Importing this package registers every rule with the registry in
:mod:`repro.analysis.registry`.  Each module holds one rule (plus its
helpers) and documents the invariant it guards and why the project
cares.
"""

from __future__ import annotations

from . import (  # noqa: F401  (imported for registration side effect)
    blas,
    excepts,
    exports,
    hotpath,
    layering,
    locks,
    metrics_docs,
    rng,
    shm,
)

__all__ = [
    "blas",
    "excepts",
    "exports",
    "hotpath",
    "layering",
    "locks",
    "metrics_docs",
    "rng",
    "shm",
]
