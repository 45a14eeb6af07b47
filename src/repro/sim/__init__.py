"""Closed-queuing simulation substrate (Section 5 of the paper).

The subpackage contains the discrete-event engine, the resource model, the
terminal population, the two workload generators (read/write and abstract
data type), the metric definitions, and :class:`~repro.sim.simulator.Simulation`
which ties them to the concurrency-control scheduler.
"""

from .engine import EventEngine
from .metrics import MetricsCollector, RunMetrics
from .params import INFINITE_RESOURCES, SimulationParameters
from .random_source import RandomSource
from .resources import (
    FifoServer,
    GlobalResourceModel,
    PerSiteResources,
    ResourceCharger,
    ResourceDomain,
    make_resource_charger,
)
from .simulator import LogicalTransaction, Simulation, run_simulation
from .terminals import Terminal
from .workload import (
    AbstractDataTypeWorkload,
    ReadWriteWorkload,
    TransactionTemplate,
    Workload,
    make_workload,
    random_compatibility_table,
)

__all__ = [
    "EventEngine",
    "MetricsCollector",
    "RunMetrics",
    "INFINITE_RESOURCES",
    "SimulationParameters",
    "RandomSource",
    "FifoServer",
    "GlobalResourceModel",
    "PerSiteResources",
    "ResourceCharger",
    "ResourceDomain",
    "make_resource_charger",
    "LogicalTransaction",
    "Simulation",
    "run_simulation",
    "Terminal",
    "AbstractDataTypeWorkload",
    "ReadWriteWorkload",
    "TransactionTemplate",
    "Workload",
    "make_workload",
    "random_compatibility_table",
]
