"""Kernel backend name, kept for the frozen benchmark's run manifest.

The kernel has one engine, the pure-Python heap in
:mod:`repro.kernel.scheduler`, and no alternative backend.  This module
exists only because ``perfbench/worker.py`` records
``resolve(None).name`` in every run manifest; it always answers
``"python"``.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

__all__ = ["Backend", "resolve"]


class Backend(NamedTuple):
    """The active kernel backend, as recorded in a run manifest."""

    name: str


_PYTHON = Backend("python")


def resolve(requested: Optional[str] = None) -> Backend:
    """The kernel backend: always the pure-Python heap, whatever is
    ``requested``."""
    return _PYTHON
