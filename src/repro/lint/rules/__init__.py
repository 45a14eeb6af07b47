"""The REP rule set of ``repro lint`` — one visitor module per rule."""

from .rep001 import Rep001RandomSource
from .rep002 import Rep002UnorderedIteration
from .rep003 import Rep003WallClock
from .rep004 import Rep004ImportLayering
from .rep005 import Rep005SeamConformance
from .rep006 import Rep006CounterSurfacing

#: Every registered rule, in id order; the runner instantiates these.
ALL_RULES = (
    Rep001RandomSource,
    Rep002UnorderedIteration,
    Rep003WallClock,
    Rep004ImportLayering,
    Rep005SeamConformance,
    Rep006CounterSurfacing,
)

__all__ = [
    "ALL_RULES",
    "Rep001RandomSource",
    "Rep002UnorderedIteration",
    "Rep003WallClock",
    "Rep004ImportLayering",
    "Rep005SeamConformance",
    "Rep006CounterSurfacing",
]
