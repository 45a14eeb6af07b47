"""One event form: every engine event is a registered ``(kind, *payload)`` tuple.

One run fires every producer of engine events — scripted crashes, held
multiprogramming slots, two-phase commit with a prepare timeout, per-site
finite resources with network delay and write fan-out — and every member
handed to ``schedule``, ``schedule_at`` or ``dispatch``, or passed as the
continuation of a resource phase, must be an exact ``tuple`` whose kind the
engine has a handler for.
"""

from collections import Counter

from stepping import double_crashes

from repro.sim.params import SimulationParameters
from repro.sim.simulator import Simulation

#: Site 2 goes down across the ends of site 1's and site 0's first outages,
#: so some commits cannot reach their write quorum and wait for the timeout.
OVERLAPPING = ((1.2, "fail", 2), (2.4, "recover", 2))

#: Every handler a member of this run drains or is dispatched into.
PRODUCERS = {
    "_submit", "_operation_finished", "_complete_after_fanout", "_restart", "_sweep",
    "_site_event", "_release_slot", "_expire", "_cpu_finished", "_io_finished",
    "_remote_arrived", "_branch_finished",
}


def test_every_member_is_a_registered_tuple():
    params = SimulationParameters(
        seed=1, total_completions=60, database_size=30, mpl_level=12,
        site_count=3, replication="copies", replication_protocol="quorum",
        quorum_read=2, quorum_write=2, commit_protocol="two-phase", prepare_timeout=0.05,
        resource_placement="per_site", resource_units=1, msg_time=0.002,
        failure_schedule=double_crashes(period=4, until=400) + OVERLAPPING,
    )
    assert params.pseudo_commit_holds_slot
    simulation = Simulation(params, workload_kind="readwrite")
    engine = simulation.engine
    handlers = engine.handlers
    malformed, fired = [], Counter()

    def inspected(method):
        def run(*arguments):
            member = arguments[-1]
            if member.__class__ is tuple and 0 <= member[0] < len(handlers):
                fired[handlers[member[0]].__name__] += 1
            else:
                malformed.append(member)
            method(*arguments)

        return run

    for name in ("schedule", "schedule_at", "dispatch"):
        setattr(engine, name, inspected(getattr(engine, name)))
    charger = simulation.resources
    charger.perform_operation = inspected(charger.perform_operation)
    for domain in charger.domains:
        domain.perform_step = inspected(domain.perform_step)
    counters = simulation.run().counters()

    assert malformed == []
    assert set(fired) == PRODUCERS
    assert counters["commit_forced_reports"] > 0 and counters["pseudo_commits"] > 0
