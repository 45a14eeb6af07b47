"""Read/write simulations with real, distinguishable page values.

The simulations register pages unmaterialized (no run reads a page value),
so a suite that checks states — folds, replays, durable and caught-up copies —
must turn values back on.  Values alone are not enough: every generated write
stores 1, so once a page has been written any fold over it gives 1 and a
skipped or mis-ordered replay goes unseen.  :func:`keep_page_values` also
numbers the writes, per workload, so that each write stores a value of its
own.  Page conflicts depend on the operation only, never on its argument, so
the run's counters are those of the plain workload.
"""

from repro.core.specification import Invocation
from repro.sim.workload import ReadWriteWorkload


def keep_page_values(monkeypatch):
    """Patch :class:`ReadWriteWorkload` for the rest of the test."""
    generate = ReadWriteWorkload.next_transaction

    def register_objects(self, scheduler):
        compatibility = self._page_type.compatibility()
        for name in self._object_names:
            scheduler.register_object(
                name, self._page_type, compatibility=compatibility, materialize_state=True
            )

    def next_transaction(self):
        template = generate(self)
        steps = template.steps
        for index, (name, invocation) in enumerate(steps):
            if invocation.op == "write":
                self.writes_numbered = getattr(self, "writes_numbered", 0) + 1
                steps[index] = (name, Invocation("write", (self.writes_numbered,)))
        return template

    monkeypatch.setattr(ReadWriteWorkload, "register_objects", register_objects)
    monkeypatch.setattr(ReadWriteWorkload, "next_transaction", next_transaction)
