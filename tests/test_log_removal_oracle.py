"""Removing a transaction from an object's log must match the literal rebuild.

``ObjectManager.remove_transaction`` skips all recomputation when the
terminating transaction owns the whole log; otherwise it pops the transaction
from every operation group and refolds the state.  The reference below
rebuilds both indexes (events per transaction, operation groups) from the
surviving log on *every* termination and replays it through the spec's
``next_state``: no sole-owner case, and no code shared with the real removal.

Random interleavings of execute / commit / abort over page, stack, set and
table objects (with unhashable-parameter and table-unknown operations) must
agree after every step, and the derived ``uncommitted`` log must equal a
literal execution-order list kept by the driver; so must seeded end-to-end
runs on both backends and through a multi-site double crash, with and without
real page values.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from page_values import keep_page_values
from stepping import schedulers_of

from repro.adts import PageType, SetType, StackType, TableType
from repro.core import scheduler as scheduler_module
from repro.core.compatibility import Answer, CompatibilitySpec, ConflictClass, RelationTable
from repro.core.object_manager import ObjectManager
from repro.core.policy import ConflictPolicy
from repro.core.specification import Invocation
from repro.sim.params import SimulationParameters
from repro.sim.simulator import Simulation


# ----------------------------------------------------------------------
# The reference: rebuild and replay everything, every time
# ----------------------------------------------------------------------
class RebuildingManager(ObjectManager):
    def remove_transaction(self, transaction_id, commit):
        log = self.uncommitted
        removed = [e for e in log if e.transaction_id == transaction_id]
        if not removed:
            return []
        survivors = [e for e in log if e.transaction_id != transaction_id]
        self._events_by_tid = {}
        self._op_groups = {}
        for event in survivors:
            self._events_by_tid.setdefault(event.transaction_id, []).append(event)
            self._index_event(event)
        if self.materialize_state:
            if commit:
                for event in removed:
                    self.committed_state = self.spec.next_state(
                        self.committed_state, event.invocation
                    )
            state = self.committed_state
            for event in survivors:
                state = self.spec.next_state(state, event.invocation)
            self.current_state = state
        return removed


def classify_by_log(manager, invocation, transaction_id, policy):
    """Classification straight from the definition: walk the whole log."""
    conflicting, recoverable = set(), set()
    for event in manager.uncommitted:
        if event.transaction_id == transaction_id:
            continue
        pairwise = manager.classify_pair(invocation, event.invocation, policy)
        if pairwise is ConflictClass.CONFLICT:
            conflicting.add(event.transaction_id)
        elif pairwise is ConflictClass.RECOVERABLE:
            recoverable.add(event.transaction_id)
    return conflicting, recoverable - conflicting


# ----------------------------------------------------------------------
# Objects and their operation menus
# ----------------------------------------------------------------------
def _reads_only_tables():
    table = RelationTable("reads only", ("read",), {("read", "read"): Answer.YES})
    return CompatibilitySpec("narrow page", commutativity=table, recoverability=table)


#: name -> (spec factory, compatibility override, invocation menu).  The
#: menus deliberately repeat equal invocations, so two transactions land in
#: the same operation group — or, for the unhashable ``write([v])`` and the
#: table-unknown ``write`` of the narrow page, in two *separate* fallback
#: groups holding equal invocations.
OBJECTS = {
    "page": (
        PageType,
        None,
        [Invocation("read"), Invocation("write", (1,)), Invocation("write", (2,)),
         Invocation("write", ([7],))],
    ),
    "stack": (
        StackType,
        None,
        [Invocation("push", (1,)), Invocation("push", (2,)), Invocation("pop"),
         Invocation("top")],
    ),
    "set": (
        SetType,
        None,
        [Invocation("insert", (1,)), Invocation("insert", (2,)), Invocation("delete", (1,)),
         Invocation("member", (1,)), Invocation("member", (2,))],
    ),
    "table": (
        TableType,
        None,
        [Invocation("insert", ("k1", 1)), Invocation("insert", ("k2", 2)),
         Invocation("delete", ("k1",)), Invocation("lookup", ("k1",)),
         Invocation("size"), Invocation("modify", ("k1", 3))],
    ),
    "narrow": (
        PageType,
        _reads_only_tables(),
        [Invocation("read"), Invocation("write", (5,))],
    ),
}
OBJECT_NAMES = sorted(OBJECTS)
TRANSACTIONS = (1, 2, 3, 4)
POLICIES = (ConflictPolicy.RECOVERABILITY, ConflictPolicy.COMMUTATIVITY)


def build(manager_class, name):
    spec_factory, compatibility, _ = OBJECTS[name]
    spec = spec_factory()
    return manager_class(
        name=name, spec=spec, initial_state=spec.initial_state(), compatibility=compatibility
    )


def assert_same(actual, expected):
    assert actual.committed_state == expected.committed_state
    assert actual.current_state == expected.current_state
    assert actual.uncommitted == expected.uncommitted
    assert actual.live_transactions() == expected.live_transactions()
    _, _, menu = OBJECTS[actual.name]
    for transaction_id in TRANSACTIONS:
        assert actual.events_of(transaction_id) == expected.events_of(transaction_id)
        for policy in POLICIES:
            for invocation in menu:
                got = actual.classify_request(invocation, transaction_id, policy)
                assert got == expected.classify_request(invocation, transaction_id, policy)
                assert got == classify_by_log(expected, invocation, transaction_id, policy)
    # Empty groups must not linger once their last owner left, and a
    # fallback group is keyed by a live event of its one owner.
    assert all(actual._op_groups.values())
    assert len(actual._op_groups) == len(expected._op_groups)
    for key, owners in actual._op_groups.items():
        if key[0] < 0:
            (owner,) = owners
            assert key[1] in {id(event) for event in actual.events_of(owner)}


def drive(steps):
    """Apply ``steps`` to both managers of every object, comparing after each.

    A step is ``(action, transaction, object index, invocation index)``;
    ``commit``/``abort`` terminate the transaction on every object, as the
    scheduler does.  Returns how many non-empty removals found the
    transaction alone in the log and how many found it sharing.
    """
    actual = {name: build(ObjectManager, name) for name in OBJECT_NAMES}
    expected = {name: build(RebuildingManager, name) for name in OBJECT_NAMES}
    # The log as a literal list in execution order, kept by hand.
    literal = {name: [] for name in OBJECT_NAMES}
    sole = shared = 0
    for sequence, (action, transaction_id, object_index, invocation_index) in enumerate(
        steps, start=1
    ):
        if action == "execute":
            name = OBJECT_NAMES[object_index % len(OBJECT_NAMES)]
            menu = OBJECTS[name][2]
            invocation = menu[invocation_index % len(menu)]
            got = actual[name].execute(invocation, transaction_id, sequence)
            want = expected[name].execute(invocation, transaction_id, sequence)
            assert got == want
            literal[name].append(got)
        else:
            commit = action == "commit"
            for name in OBJECT_NAMES:
                owners = actual[name].live_transactions()
                if transaction_id in owners:
                    if len(owners) == 1:
                        sole += 1
                    else:
                        shared += 1
                log_before = actual[name].uncommitted
                snapshot = list(log_before)
                got = actual[name].remove_transaction(transaction_id, commit)
                want = expected[name].remove_transaction(transaction_id, commit)
                assert got == want
                # The old list object is never mutated.
                assert log_before == snapshot
                literal[name] = [e for e in literal[name] if e.transaction_id != transaction_id]
        for name in OBJECT_NAMES:
            assert_same(actual[name], expected[name])
            assert actual[name].uncommitted == literal[name]
    return sole, shared


step_strategy = st.tuples(
    st.sampled_from(["execute", "execute", "execute", "commit", "abort"]),
    st.sampled_from(TRANSACTIONS),
    st.integers(min_value=0, max_value=len(OBJECT_NAMES) - 1),
    st.integers(min_value=0, max_value=5),
)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(step_strategy, max_size=40))
def test_random_interleavings_match_the_rebuilding_reference(steps):
    drive(steps)


@pytest.mark.parametrize("seed", [1, 2, 3, 5, 8])
def test_seeded_interleavings_exercise_both_removal_cases(seed):
    rng = random.Random(seed)
    steps = [
        (
            rng.choice(["execute"] * 4 + ["commit", "abort"]),
            rng.choice(TRANSACTIONS),
            rng.randrange(len(OBJECT_NAMES)),
            rng.randrange(6),
        )
        for _ in range(150)
    ]
    sole, shared = drive(steps)
    # Without both cases the comparison proves nothing about either.
    assert sole > 0 and shared > 0


def test_equal_fallback_operations_of_two_transactions_stay_separate():
    # Unhashable parameter and table-unknown op: each event has its own
    # group, so removing one transaction's must leave the other's classified.
    for name, invocation in (
        ("page", Invocation("write", ([7],))),
        ("narrow", Invocation("write", (5,))),
    ):
        steps = [
            ("execute", 1, OBJECT_NAMES.index(name), OBJECTS[name][2].index(invocation)),
            ("execute", 2, OBJECT_NAMES.index(name), OBJECTS[name][2].index(invocation)),
            ("abort", 1, 0, 0),
            ("commit", 2, 0, 0),
        ]
        assert drive(steps) == (1, 1)


# ----------------------------------------------------------------------
# Seeded end-to-end runs
# ----------------------------------------------------------------------
DOUBLE_CRASH = (
    (0.6, "fail", 1),
    (1.0, "fail", 0),
    (1.5, "recover", 1),
    (2.1, "recover", 0),
    (2.8, "fail", 1),
    (3.3, "recover", 1),
)

QUORUM_2PC_DOUBLE_CRASH = dict(
    policy=ConflictPolicy.RECOVERABILITY, site_count=3, replication="copies",
    replication_protocol="quorum", quorum_read=2, quorum_write=2,
    commit_protocol="two-phase", msg_time=0.002, failure_schedule=DOUBLE_CRASH,
)

#: workload kind, whether read/write pages carry real values (so that the
#: replay is compared, not just the indexes), and parameter overrides.
END_TO_END = {
    "semantic": ("readwrite", False, dict(policy=ConflictPolicy.RECOVERABILITY)),
    "semantic-values": ("readwrite", True, dict(policy=ConflictPolicy.RECOVERABILITY)),
    "semantic-adt": ("adt", False, dict(policy=ConflictPolicy.RECOVERABILITY)),
    "2pl": ("readwrite", False, dict(policy=ConflictPolicy.TWO_PHASE_LOCKING)),
    "2pl-values": ("readwrite", True, dict(policy=ConflictPolicy.TWO_PHASE_LOCKING)),
    "quorum-2pc-double-crash": ("readwrite", False, QUORUM_2PC_DOUBLE_CRASH),
    "quorum-2pc-double-crash-values": ("readwrite", True, QUORUM_2PC_DOUBLE_CRASH),
}


def run_and_observe(params, workload_kind, manager_class, monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(scheduler_module, "ObjectManager", manager_class)
        simulation = Simulation(params, workload_kind=workload_kind)
    managers = [
        manager for scheduler in schedulers_of(simulation)
        for manager in scheduler.objects.values()
    ]
    assert managers and all(type(manager) is manager_class for manager in managers)
    metrics = simulation.run()
    return dict(
        counters=metrics.counters(),
        simulated_time=metrics.simulated_time,
        committed=[
            {name: manager.committed_state for name, manager in scheduler.objects.items()}
            for scheduler in schedulers_of(simulation)
        ],
        visible=[
            {name: manager.current_state for name, manager in scheduler.objects.items()}
            for scheduler in schedulers_of(simulation)
        ],
    )


@pytest.mark.parametrize("case", sorted(END_TO_END))
@pytest.mark.parametrize("seed", [1, 7, 13])
def test_seeded_runs_match_the_rebuilding_reference(case, seed, monkeypatch):
    workload_kind, page_values, overrides = END_TO_END[case]
    if page_values:
        keep_page_values(monkeypatch)
    # A small hot database: logs are shared often, so both removal cases and
    # the conflict machinery behind them (restarts, pseudo-commits) all run.
    params = SimulationParameters(
        mpl_level=10, total_completions=120, database_size=40, seed=seed, **overrides
    )
    expected = run_and_observe(params, workload_kind, RebuildingManager, monkeypatch)
    actual = run_and_observe(params, workload_kind, ObjectManager, monkeypatch)
    assert actual == expected
    assert actual["counters"]["aborts"] > 0 or actual["counters"]["blocks"] > 0
    if page_values:
        # Real values were compared: some committed write moved a page.
        assert any(
            state != 0 for states in actual["committed"] for state in states.values()
        )
