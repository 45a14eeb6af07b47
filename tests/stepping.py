"""Checking a simulation between every two engine events.

Every event the engine drains is a typed member whose handler sits in the
engine's kind table, so wrapping that table once the system is built puts a
check in front of every event.  A member one handler dispatches inside its
own frame (the continuation of a finished resource phase) passes through the
table too; that only adds checks, at points where no scheduler call is in
progress.
"""

from repro.sim.routing import CentralCoordinator
from repro.sim.simulator import Simulation


def check_between_events(simulation, check):
    """Run ``check()`` before every event ``simulation``'s engine drains."""
    handlers = simulation.engine.handlers

    def checked(handler):
        def run(member):
            check()
            handler(member)

        return run

    handlers[:] = [checked(handler) for handler in handlers]


def schedulers_of(simulation):
    """The run's live schedulers: the coordinator's own, or one per up site."""
    coordinator = simulation.router
    if isinstance(coordinator, CentralCoordinator):
        return [coordinator.scheduler]
    return [site.scheduler for site in coordinator.sites if site.status.is_up]


class CheckedSimulation(Simulation):
    """Holds every live scheduler to ``check`` between every two engine
    events, and once more when the run ends.  ``checks`` counts the rounds;
    a subclass sets ``check`` or extends :meth:`check_state`."""

    checks = 0
    check = staticmethod(lambda scheduler: None)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        check_between_events(self, self.check_state)

    def check_state(self):
        self.checks += 1
        for scheduler in schedulers_of(self):
            self.check(scheduler)

    def run(self):
        metrics = super().run()
        self.check_state()
        return metrics


def double_crashes(period, until):
    """Two staggered single-site outages per period (the q3-2pc-crash script)."""
    return tuple(
        entry
        for start in range(0, until, period)
        for entry in (
            (start + 0.2 * period, "fail", 1),
            (start + 0.4 * period, "recover", 1),
            (start + 0.5 * period, "fail", 0),
            (start + 0.7 * period, "recover", 0),
        )
    )


def find_cycle(edges):
    """A node on a cycle of ``edges`` (source, target pairs), else ``None``."""
    successors = {}
    for source, target in edges:
        successors.setdefault(source, []).append(target)
    done, on_path = set(), set()
    for root in sorted(successors):
        stack = [(root, iter(successors.get(root, ())))]
        on_path.add(root)
        while stack:
            node, pending = stack[-1]
            for target in pending:
                if target in on_path:
                    return target
                if target not in done:
                    on_path.add(target)
                    stack.append((target, iter(successors.get(target, ()))))
                    break
            else:
                stack.pop()
                on_path.discard(node)
                done.add(node)
    return None
