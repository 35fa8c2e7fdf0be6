"""Pluggable vectorized bitset-operation backends.

Every hot path in the reproduction — closure intersection, backward
pruning subset tests, support popcounts (paper §4.1, Figure 3) —
bottoms out in operations over row bitsets.  This package makes the
*implementation* of those operations pluggable while keeping the
*representation* at the API boundary fixed: *every backend consumes and
returns plain Python ``int`` bitsets* (bit ``i`` set means row ``i``
present, exactly as in :mod:`repro.core.bitset`), so results are
bit-identical across backends by construction.  What a backend may vary
is how it stores an *encoded support table* internally and how it
executes the batch operations over it:

``int`` (default)
    The pure arbitrary-precision-integer implementation the package has
    always used.  No encoding, no dependencies; batch calls are tight
    loops over ``&``/``|``/``int.bit_count``.

``packed``
    Supports packed into 64-bit words (``array("Q")``) with a
    table-driven 16-bit popcount.  Pure stdlib.

``numpy``
    Supports packed into a ``uint64`` matrix; ``intersect_many`` is one
    ``np.bitwise_and.reduce`` over a row slice, popcounts go through
    ``np.bitwise_count``.  Import-guarded: the backend registers only
    when numpy is importable, and nothing else in the package imports
    numpy.

Selection precedence (see :func:`resolve_backend`):

1. an explicit ``backend=`` argument (a name or a
   :class:`~repro.core.backends.base.BitsetBackend` instance) threaded
   through ``MiningView``/``mine_topk``/``mine_farmer``/the service;
2. the ``REPRO_BITSET_BACKEND`` environment variable;
3. the ``int`` default.

The special name ``"auto"`` (:data:`AUTO_BACKEND`) defers the choice to
:func:`plan_auto_backend`, the one place a measured crossover would be
encoded.  Today it resolves to ``int`` for every row count and task:
with the bucketed threshold store (:class:`ThresholdStore`, one store
shared by every backend) ``int`` beats ``numpy`` on tall top-k mining
at every committed size — see DESIGN.md §12 and ``BENCH_core.json``.
``"auto"`` can only be resolved where a row count is known —
dataset-aware entry points (``MiningView``, the miners, the parallel
front ends, the service) pass ``n_rows`` through;
:func:`auto_backend_stats` counts the choices made so bench output and
``/metrics`` can report them honestly.

The batch contract every backend honours (and
``tests/test_backends.py`` enforces on audit-generator cases):

* ``encode_supports(bitsets, n_bits)`` returns an opaque handle over a
  support table; ``intersect_many(handle, ids)`` /
  ``union_many(handle, ids)`` / ``intersect_union_many(handle, ids)``
  fold the selected supports in one call and return plain ``int``
  bitsets equal to the ``&``/``|`` folds;
* ``popcount_many(bitsets)`` equals ``[popcount(b) for b in bitsets]``;
* the scalar index helpers (``bit``/``from_indices``/``mask_below``/
  ``mask_upto``...) share one validated implementation, so every
  backend agrees on edge semantics — negative indices raise
  ``ValueError`` everywhere.
"""

from __future__ import annotations

import os
from typing import Optional, Union

from .base import BitsetBackend, ThresholdStore
from .int_backend import IntBackend
from .packed_backend import PackedBackend

__all__ = [
    "AUTO_BACKEND",
    "BitsetBackend",
    "DEFAULT_BACKEND",
    "ENV_VAR",
    "ThresholdStore",
    "auto_backend_stats",
    "available_backends",
    "get_backend",
    "plan_auto_backend",
    "resolve_backend",
]

ENV_VAR = "REPRO_BITSET_BACKEND"
DEFAULT_BACKEND = "int"

# Sentinel name deferring backend selection to :func:`plan_auto_backend`.
AUTO_BACKEND = "auto"

# Name -> singleton instance.  Backends are stateless (the per-view
# state lives in the encoded handles), so one shared instance per
# process is enough and lets SupportIndex compare backends by identity.
_REGISTRY: dict[str, BitsetBackend] = {
    "int": IntBackend(),
    "packed": PackedBackend(),
}

try:  # numpy is optional: pure Python stays the default.
    from .numpy_backend import NumpyBackend

    _REGISTRY["numpy"] = NumpyBackend()
except ImportError:  # pragma: no cover - exercised on numpy-free hosts
    NumpyBackend = None

# Names a user may ask for, available or not — used for CLI choices and
# for the "unavailable" (vs "unknown") error distinction.
KNOWN_BACKENDS = ("int", "packed", "numpy")


def available_backends() -> tuple[str, ...]:
    """Names of the backends usable in this process, default first."""
    return tuple(
        sorted(_REGISTRY, key=lambda name: (name != DEFAULT_BACKEND, name))
    )


def get_backend(name: str) -> BitsetBackend:
    """The registered backend singleton for ``name``.

    Raises:
        ValueError: unknown name, or a known backend whose optional
            dependency is missing in this environment.  Both errors list
            the registry keys actually usable in this process, so a user
            holding an available-but-unknown name (a typo, a backend from
            a newer version) sees what they *can* ask for.
    """
    backend = _REGISTRY.get(name)
    if backend is None:
        registered = ", ".join(available_backends())
        if name in KNOWN_BACKENDS:
            raise ValueError(
                f"bitset backend {name!r} is not available in this "
                f"environment (is its dependency installed?); registered "
                f"backends: {registered}"
            )
        raise ValueError(
            f"unknown bitset backend {name!r}; expected one of "
            f"{', '.join(KNOWN_BACKENDS)} (or {AUTO_BACKEND!r} at a "
            f"dataset-aware entry point); registered backends: {registered}"
        )
    return backend


# Choices made by the auto planner, by resolved backend name.  Plain
# int increments under the GIL; sampled by ``repro bench`` (the
# ``chose_backend`` honesty field) and the service's ``/metrics``.
_AUTO_CHOICES: dict[str, int] = {name: 0 for name in KNOWN_BACKENDS}


def plan_auto_backend(n_rows: int, task: str = "topk") -> str:
    """Backend name for ``backend="auto"``, planned from row count and task.

    ``task`` names what the backend will execute: ``"topk"`` (dynamic
    top-k mining, the default) or ``"farmer"`` (static-threshold FARMER
    baselines).  Every measured combination resolves to the int default
    (DESIGN.md §12): at paper scale batch folds span one or two machine
    words and the alternates only add per-call conversion; on tall
    cohorts the threshold fold is the same bucketed store on every
    backend, and int beats numpy at 256, 512 and 1024 rows.  The
    planner stays the single seam a faster backend would be planned
    from.
    """
    return DEFAULT_BACKEND


def auto_backend_stats() -> dict[str, int]:
    """Snapshot of how often ``backend="auto"`` picked each backend."""
    return dict(_AUTO_CHOICES)


def resolve_backend(
    backend: Optional[Union[str, BitsetBackend]] = None,
    n_rows: Optional[int] = None,
    task: str = "topk",
) -> BitsetBackend:
    """Apply the selection precedence: argument > environment > default.

    ``backend="auto"`` (as an argument or via the environment variable)
    resolves through :func:`plan_auto_backend` and therefore needs
    ``n_rows``; dataset-aware callers (``MiningView``, the miners, the
    parallel front ends) pass it through.  ``task`` qualifies the auto
    plan (``"topk"``/``"farmer"``, see :func:`plan_auto_backend`).
    """
    if isinstance(backend, BitsetBackend):
        return backend
    name = backend
    if name is None:
        env = os.environ.get(ENV_VAR, "").strip()
        name = env or DEFAULT_BACKEND
    if name == AUTO_BACKEND:
        if n_rows is None:
            raise ValueError(
                f"backend={AUTO_BACKEND!r} needs a row count to plan "
                "from; resolve it at a dataset-aware entry point (or "
                "pass n_rows)"
            )
        chosen = plan_auto_backend(n_rows, task=task)
        _AUTO_CHOICES[chosen] += 1
        return _REGISTRY[chosen]
    return get_backend(name)
