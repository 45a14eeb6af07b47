"""Terminals: the closed part of the closed queuing model.

A fixed population of terminals issues transactions.  Each terminal has at
most one outstanding transaction: after its current transaction *completes*
(pseudo-commits or commits — the user-visible completion of Section 4.3), the
terminal thinks for an exponentially distributed time and then submits the
next one.  This is what makes the model *closed*: the offered load adapts to
how fast the system completes work.
"""

from __future__ import annotations

from dataclasses import dataclass

from .engine import EventEngine
from .random_source import RandomSource

__all__ = ["Terminal"]


@dataclass(slots=True)
class Terminal:
    """One interactive terminal."""

    terminal_id: int
    #: Number of transactions this terminal has submitted so far.
    submitted: int = 0
    #: Number of its transactions that have completed.
    completed: int = 0

    def think_then_submit(
        self,
        engine: EventEngine,
        rng: RandomSource,
        mean_think_time: float,
        kind: int,
    ) -> None:
        """Schedule the terminal's next submission, ``(kind, self)``, after
        an exponential think time (the simulator registered its submission
        handler under ``kind``)."""
        engine.schedule(rng.exponential(mean_think_time), (kind, self))
