"""Simulation parameters (the paper's Tables IX and X).

:class:`SimulationParameters` bundles every knob of the closed-queuing model.
The defaults are the *nominal values* of Table X: a 1000-object database, 200
terminals, transactions of 4-12 operations, 0.05 s per operation (0.015 s CPU
plus 0.035 s disk when resources are finite), 1 s mean think time, and a write
probability of 0.3 for the read/write workload.

The only deliberate departure from the paper is the run length: the paper
simulates until 50 000 transactions complete and averages 10 runs; that scale
is a parameter here (``total_completions``, ``runs`` in the experiment layer)
so that the benchmark suite finishes in seconds while the full-scale settings
remain one assignment away.

A parameter that ``repro simulate`` exposes declares its option on its field
(:func:`_flag`): the CLI builds the option from it, and ``validate`` checks
the declared ``choices``.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from ..core.errors import SimulationError
from ..core.policy import ConflictPolicy

__all__ = ["INFINITE_RESOURCES", "SimulationParameters"]

#: Sentinel for the infinite-resources configuration (no CPU/disk queueing;
#: each operation simply takes ``step_time`` of simulated time).
INFINITE_RESOURCES: Optional[int] = None


def _flag(default: object, flag: str, help: str, **options: object) -> Any:
    """A field exposed as the ``repro simulate`` option ``flag``; ``help`` is the
    parameter's one description, ``options`` its ``choices`` (the values
    ``validate`` accepts) or ``metavar``."""
    return field(default=default, metadata={"flag": flag, "help": help, **options})


@dataclass
class SimulationParameters:
    """All parameters of one simulation run (Tables IX and X)."""

    # ----- database and workload shape -------------------------------------
    database_size: int = _flag(1000, "--database-size", "number of objects in the database")
    #: Number of terminals issuing transactions.
    num_terminals: int = 200
    #: Minimum number of operations in a transaction.
    min_length: int = 4
    #: Maximum number of operations in a transaction.
    max_length: int = 12
    mpl_level: int = _flag(50, "--mpl", "level of multiprogramming (most transactions active)")

    # ----- timing ------------------------------------------------------------
    #: Execution time of each operation under infinite resources (seconds).
    step_time: float = 0.05
    #: CPU service time per operation when resources are finite (seconds).
    cpu_time: float = 0.015
    #: Disk service time per operation when resources are finite (seconds).
    io_time: float = 0.035
    #: Mean of the exponential think time between a terminal's transactions.
    ext_think_time: float = 1.0

    # ----- resources ----------------------------------------------------------
    resource_units: Optional[int] = _flag(
        INFINITE_RESOURCES, "--resource-units",
        "number of resource units, one CPU and two disks each (omit for infinite resources); "
        "under per_site placement this is the hardware of each site, so the total capacity "
        "grows with the site count",
    )
    resource_placement: str = _flag(
        "global", "--resource-placement",
        "where the hardware lives: one shared CPU/disk pool charged once per granted "
        "operation, however many replica branches executed it (global, the paper's model), or "
        "one pool per site, charging every executing replica to the hardware of its site "
        "(per_site)",
        choices=("global", "per_site"),
    )
    msg_time: float = _flag(
        0.0, "--msg-time",
        "cross-site network cost in seconds, charged to work (submit and commit fan-out) "
        "routed away from a transaction's home site; site-local work pays nothing (default 0: "
        "no network model, no extra events)",
    )
    site_units: Optional[Tuple[int, ...]] = _flag(
        None, "--site-units",
        "heterogeneous per-site hardware: one resource-unit count per site (comma-separated, "
        "requires per_site placement and one entry per site; replaces --resource-units)",
        metavar="U0,U1,...",
    )

    # ----- read/write workload -------------------------------------------------
    write_probability: float = _flag(
        0.3, "--write-probability", "probability that a read/write-workload operation is a write"
    )

    # ----- abstract-data-type workload ------------------------------------------
    #: Number of operations defined on each object of the ADT workload.
    operations_per_object: int = 4
    pc: int = _flag(4, "--pc", "commutative entries per object compatibility table (P_c)")
    pr: int = _flag(4, "--pr", "recoverable entries per object compatibility table (P_r)")

    # ----- multi-site execution ---------------------------------------------------
    site_count: int = _flag(
        1, "--sites",
        "number of sites, each a scheduler and backend of its own (1: the centralized system "
        "of the paper, bit-identical to the original model)",
    )
    replication: str = _flag(
        "single", "--replication",
        "placement of object copies across sites: everything on site 0 (single), each object "
        "sharded to one site by a stable hash (hash), or every object at every site (copies)",
        choices=("single", "hash", "copies"),
    )
    replication_protocol: str = _flag(
        "available-copies", "--replication-protocol",
        "how replicas are kept consistent and selected: available-copies "
        "(read-one/write-all-available, unreadable window after recovery), quorum "
        "(version-numbered R/W quorums, R + W > N, catch-up recovery) or primary-copy (writes "
        "through an elected primary with deterministic failover, reads from any live replica, "
        "catch-up recovery)",
        choices=("available-copies", "quorum", "primary-copy"),
    )
    quorum_read: Optional[int] = _flag(
        None, "--quorum-r", "read quorum size of the quorum protocol (default: a majority of "
        "the copies)", metavar="R",
    )
    quorum_write: Optional[int] = _flag(
        None, "--quorum-w", "write quorum size of the quorum protocol (default: a majority of "
        "the copies)", metavar="W",
    )
    commit_protocol: str = _flag(
        "one-phase", "--commit-protocol",
        "when a distributed commit may report durable: one-phase (one commit fan-out, durable "
        "once every branch drained; a branch lost with its site is dropped) or two-phase "
        "(commit-time cycle certification, durability only at the replication protocol's write "
        "condition, W live stamped copies under quorum, and re-replication of under-stamped "
        "objects on site failure)",
        choices=("one-phase", "two-phase"),
    )
    prepare_timeout: Optional[float] = _flag(
        None, "--prepare-timeout",
        "force-report a two-phase commit still below its W-stamp condition after this much "
        "simulated time (default: wait indefinitely, never report under-replicated)",
        metavar="SECONDS",
    )
    #: Scripted site crashes and recoveries: ``(time, action, site_id)``
    #: entries with ``action`` in {"fail", "recover"}, executed as simulation
    #: events at the given simulated times.
    failure_schedule: Tuple[Tuple[float, str, int], ...] = ()

    # ----- concurrency control ----------------------------------------------------
    policy: ConflictPolicy = _flag(
        ConflictPolicy.RECOVERABILITY, "--policy",
        "conflict policy: commutativity (the baseline), recoverability (the paper's) or 2pl "
        "(page-level strict two-phase locking)",
        choices=tuple(sorted(policy.value for policy in ConflictPolicy)),
    )
    #: Fair scheduling at the object managers (Section 5.2).
    fair_scheduling: bool = True
    #: Whether a pseudo-committed transaction keeps occupying an mpl slot
    #: until it durably commits (the paper counts it as active).
    pseudo_commit_holds_slot: bool = True

    # ----- run control -----------------------------------------------------------
    total_completions: int = _flag(2000, "--completions", "completions after which the run stops")
    #: Completions ignored before metrics start accumulating (warm-up).
    warmup_completions: int = 0
    seed: int = _flag(1, "--seed", "random seed for the run")

    # ------------------------------------------------------------------
    def __post_init__(self) -> None:
        # Normalize the schedule so callers can pass lists interchangeably.
        self.failure_schedule = tuple(
            (float(time), str(action), int(site)) for time, action, site in self.failure_schedule
        )
        if self.site_units is not None:
            self.site_units = tuple(int(units) for units in self.site_units)
        self.validate()
        # A policy may be given by its value, as the policy option does.
        self.policy = ConflictPolicy(self.policy)

    def validate(self) -> None:
        """Raise :class:`~repro.core.errors.SimulationError` on nonsense values."""
        for name, choices in _CHOICES:
            value = getattr(self, name)
            if str(value) not in choices:
                raise SimulationError(
                    f"{name} must be one of {', '.join(map(repr, choices))}, got {value!r}"
                )
        if self.database_size <= 0:
            raise SimulationError("database_size must be positive")
        if self.num_terminals <= 0:
            raise SimulationError("num_terminals must be positive")
        if self.mpl_level <= 0:
            raise SimulationError("mpl_level must be positive")
        if not 0 < self.min_length <= self.max_length:
            raise SimulationError("transaction length bounds must satisfy 0 < min <= max")
        # Every comparison with NaN is false, so the range checks below would
        # let a NaN (or an infinity) through: reject non-finite times first.
        for name in ("step_time", "cpu_time", "io_time", "ext_think_time", "msg_time"):
            if not math.isfinite(getattr(self, name)):
                raise SimulationError(f"{name} must be finite, got {getattr(self, name)}")
        if self.step_time <= 0 or self.cpu_time <= 0 or self.io_time <= 0:
            raise SimulationError("service times must be positive")
        if self.ext_think_time < 0:
            raise SimulationError("think time must be non-negative")
        if self.resource_units is not None and self.resource_units <= 0:
            raise SimulationError("resource_units must be positive (or None for infinite)")
        if self.msg_time < 0:
            raise SimulationError("msg_time must be non-negative")
        if not 0.0 <= self.write_probability <= 1.0:
            raise SimulationError("write_probability must lie in [0, 1]")
        if self.operations_per_object <= 0:
            raise SimulationError("operations_per_object must be positive")
        table_cells = self.operations_per_object * self.operations_per_object
        if self.pc < 0 or self.pc % 2 != 0:
            raise SimulationError("pc must be a non-negative even integer")
        if self.pr < 0:
            raise SimulationError("pr must be non-negative")
        if self.pc + self.pr > table_cells:
            raise SimulationError("pc + pr cannot exceed the number of table entries")
        if self.site_count < 1:
            raise SimulationError("site_count must be at least 1")
        if self.prepare_timeout is not None:
            if self.commit_protocol != "two-phase":
                raise SimulationError(
                    "prepare_timeout requires commit_protocol='two-phase'"
                )
            if not math.isfinite(self.prepare_timeout):
                raise SimulationError(
                    f"prepare_timeout must be finite, got {self.prepare_timeout}"
                )
            if self.prepare_timeout <= 0:
                raise SimulationError("prepare_timeout must be positive")
        if self.quorum_read is not None or self.quorum_write is not None:
            if self.replication_protocol != "quorum":
                raise SimulationError(
                    "quorum_read/quorum_write require replication_protocol='quorum'"
                )
            if self.replication != "copies":
                # Hash/single placement gives every object one copy, so any
                # explicit quorum would be silently clamped to 1/1 — reject
                # rather than pretend the requested quorums are in force.
                raise SimulationError(
                    "explicit quorum_read/quorum_write require "
                    "replication='copies'; hash/single placement puts one "
                    "copy per object, which would clamp any quorum to 1"
                )
        for label, size in (("quorum_read", self.quorum_read),
                            ("quorum_write", self.quorum_write)):
            if size is not None and not 1 <= size <= self.site_count:
                raise SimulationError(
                    f"{label} must lie in [1, {self.site_count}] "
                    f"for site_count={self.site_count}"
                )
        if self.replication_protocol == "quorum" and self.replication == "copies":
            majority = self.site_count // 2 + 1
            read = self.quorum_read if self.quorum_read is not None else majority
            write = self.quorum_write if self.quorum_write is not None else majority
            if read + write <= self.site_count:
                raise SimulationError(
                    f"quorum_read R={read} + quorum_write W={write} must "
                    f"exceed the copy count N={self.site_count} (every read "
                    "quorum must intersect every write quorum)"
                )
            if 2 * write <= self.site_count:
                raise SimulationError(
                    f"quorum_write W={write} must exceed half the copy count "
                    f"N={self.site_count} (write quorums must intersect each "
                    "other, or concurrent writers go unserialized)"
                )
        if self.site_units is not None:
            if self.resource_placement != "per_site":
                raise SimulationError(
                    "site_units requires resource_placement='per_site'"
                )
            if self.resource_units is not None:
                # Ambiguous hardware description: the per-site list is the
                # unit count, so a homogeneous resource_units alongside it
                # would be silently ignored (and misreported).
                raise SimulationError(
                    "site_units replaces resource_units; set one, not both"
                )
            if len(self.site_units) != self.site_count:
                raise SimulationError(
                    f"site_units lists {len(self.site_units)} sites, "
                    f"site_count is {self.site_count}"
                )
            if any(units <= 0 for units in self.site_units):
                raise SimulationError("site_units entries must be positive")
        for entry in self.failure_schedule:
            time, action, site = entry
            if not math.isfinite(time):
                raise SimulationError(f"failure_schedule time {time} is not finite")
            if time < 0:
                raise SimulationError(f"failure_schedule time {time} is negative")
            if action not in ("fail", "recover"):
                raise SimulationError(
                    f"failure_schedule action {action!r} must be 'fail' or 'recover'"
                )
            if not 0 <= site < self.site_count:
                raise SimulationError(
                    f"failure_schedule site {site} outside [0, {self.site_count})"
                )
        if self.total_completions <= 0:
            raise SimulationError("total_completions must be positive")
        if not 0 <= self.warmup_completions < self.total_completions:
            raise SimulationError("warmup_completions must be in [0, total_completions)")

    # ------------------------------------------------------------------
    @property
    def mean_transaction_length(self) -> float:
        """Average number of operations per transaction."""
        return (self.min_length + self.max_length) / 2.0

    @property
    def infinite_resources(self) -> bool:
        """True when the run models no CPU/disk contention.

        A heterogeneous ``site_units`` list is finite hardware even while
        ``resource_units`` stays ``None`` (the per-site list replaces it).
        """
        return self.resource_units is None and self.site_units is None

    @staticmethod
    def units_to_hardware(units: Optional[int]) -> Tuple[int, int]:
        """``(num_cpus, num_disks)`` of one pool of ``units`` resource units.

        A resource unit is one CPU plus two disks (Table IX); ``None`` is
        the infinite-resource configuration, encoded as zero hardware.
        This is the single source of the mapping — the shared-pool charger
        applies it to ``resource_units``, the per-site charger to each
        entry of ``site_units``.
        """
        return (0, 0) if units is None else (units, 2 * units)

    @property
    def num_cpus(self) -> int:
        """Number of CPUs (one per resource unit); 0 under infinite resources."""
        return self.units_to_hardware(self.resource_units)[0]

    @property
    def num_disks(self) -> int:
        """Number of disks (two per resource unit); 0 under infinite resources."""
        return self.units_to_hardware(self.resource_units)[1]

    def replace(self, **overrides: object) -> "SimulationParameters":
        """Return a copy with some fields overridden (validated)."""
        return dataclasses.replace(self, **overrides)

    def describe(self) -> Dict[str, object]:
        """A flat dict of the parameter values (used by the report renderer)."""
        description = dataclasses.asdict(self)
        description["policy"] = str(self.policy)
        if self.resource_units is not None:
            description["resource_units"] = self.resource_units
        elif self.site_units is not None:
            # Finite hardware, just heterogeneous: the per-site list (also
            # echoed under "site_units") is the authoritative unit count.
            description["resource_units"] = "per-site"
        else:
            description["resource_units"] = "infinite"
        return description


#: ``(name, choices)`` of every field that declares its choices, built once:
#: :meth:`SimulationParameters.validate` runs on every construction.
_CHOICES = tuple(
    (declared.name, declared.metadata["choices"])
    for declared in dataclasses.fields(SimulationParameters)
    if "choices" in declared.metadata
)
