"""Resolution of the miners' ``backend=`` argument.

Every bitset operation of the package — closure intersections, backward
pruning subset tests, support popcounts (paper §4.1, Figure 3) — runs
on plain Python ``int`` bitsets, which give ``&``/``|`` and
``int.bit_count`` at C speed with no dependencies (see
:class:`repro.core.view.SupportIndex`).  There is one representation,
so there is nothing to choose; DESIGN.md §12 records the measurements
that retired the array-encoded alternatives.

The ``backend=`` argument of ``mine_topk``, ``mine_topk_hybrid``,
``mine_farmer`` and their parallel front ends stays for compatibility
and accepts ``None``, ``"int"`` or ``"auto"``; anything else raises
``ValueError``.  ``"auto"`` is resolved through
:func:`plan_auto_backend` (which answers ``"int"`` for every input) and
counted in :func:`auto_backend_stats`, so benchmark output can report
what the planner chose.
"""

from __future__ import annotations

from typing import Optional

__all__ = [
    "AUTO_BACKEND",
    "DEFAULT_BACKEND",
    "auto_backend_stats",
    "available_backends",
    "plan_auto_backend",
    "resolve_backend",
]

DEFAULT_BACKEND = "int"

# Sentinel name deferring the choice to :func:`plan_auto_backend`.
AUTO_BACKEND = "auto"

# Choices made for ``backend="auto"``, by resolved name.  Plain int
# increments under the GIL.
_AUTO_CHOICES: dict[str, int] = {DEFAULT_BACKEND: 0}


def available_backends() -> tuple[str, ...]:
    """Names of the bitset backends usable in this process."""
    return (DEFAULT_BACKEND,)


def plan_auto_backend(n_rows: int, task: str = "topk") -> str:
    """Backend name for ``backend="auto"``: ``"int"`` for every input.

    ``task`` names what will run (``"topk"`` or ``"farmer"``).  Neither
    argument changes the answer; both are kept so callers and profilers
    see the same planner call they always did.
    """
    return DEFAULT_BACKEND


def auto_backend_stats() -> dict[str, int]:
    """Snapshot of how often ``backend="auto"`` picked each backend."""
    return dict(_AUTO_CHOICES)


def resolve_backend(
    backend: Optional[str] = None,
    n_rows: Optional[int] = None,
    task: str = "topk",
) -> str:
    """Validate a ``backend=`` argument and return the backend name.

    ``None`` and ``"int"`` resolve to ``"int"``.  ``"auto"`` needs the
    dataset's row count, resolves through :func:`plan_auto_backend` and
    is counted.  Any other value raises ``ValueError``.
    """
    if backend is None or backend == DEFAULT_BACKEND:
        return DEFAULT_BACKEND
    if backend == AUTO_BACKEND:
        if n_rows is None:
            raise ValueError(
                f"backend={AUTO_BACKEND!r} needs a row count to plan "
                "from; resolve it at a dataset-aware entry point (or "
                "pass n_rows)"
            )
        chosen = plan_auto_backend(n_rows, task=task)
        _AUTO_CHOICES[chosen] += 1
        return chosen
    raise ValueError(
        f"unknown bitset backend {backend!r}; expected None, "
        f"{DEFAULT_BACKEND!r} or {AUTO_BACKEND!r}"
    )
