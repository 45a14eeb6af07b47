"""Property-based tests (hypothesis) for the core invariants.

These tests check the paper's formal claims on randomly generated inputs:

* Lemma 1 — commutativity implies recoverability — for arbitrary invocation
  pairs and states of the bundled ADTs;
* Definition 1/2 consistency between the declared tables and the executable
  semantics for random states (beyond the curated sample states);
* Theorem 1 / Lemma 3 — every history the scheduler admits is sound and free
  of cascading aborts;
* Lemma 4 — every history of committed transactions the scheduler produces is
  serializable;
* structural invariants of the dependency graph and the simulator's metrics.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.adts import SetType, StackType, TableType
from repro.core.derivation import invocation_recoverable, invocations_commute
from repro.core.dependency_graph import DependencyGraph, EdgeKind
from repro.core.policy import ConflictPolicy
from repro.core.scheduler import Scheduler
from repro.core.serializability import ObjectUniverse, is_log_sound, is_serializable
from repro.core.specification import Invocation
from repro.sim.params import SimulationParameters
from repro.sim.simulator import run_simulation

_settings = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
elements = st.integers(min_value=0, max_value=3)

set_states = st.frozensets(elements, max_size=4)
set_invocations = st.one_of(
    st.builds(lambda e: Invocation("insert", (e,)), elements),
    st.builds(lambda e: Invocation("delete", (e,)), elements),
    st.builds(lambda e: Invocation("member", (e,)), elements),
)

stack_states = st.lists(elements, max_size=4).map(tuple)
stack_invocations = st.one_of(
    st.builds(lambda e: Invocation("push", (e,)), elements),
    st.just(Invocation("pop")),
    st.just(Invocation("top")),
)

table_states = st.dictionaries(st.sampled_from(["k1", "k2", "k3"]), elements, max_size=3)
table_invocations = st.one_of(
    st.builds(lambda k, v: Invocation("insert", (k, v)), st.sampled_from(["k1", "k2"]), elements),
    st.builds(lambda k: Invocation("delete", (k,)), st.sampled_from(["k1", "k2"])),
    st.builds(lambda k: Invocation("lookup", (k,)), st.sampled_from(["k1", "k2"])),
    st.just(Invocation("size")),
    st.builds(lambda k, v: Invocation("modify", (k, v)), st.sampled_from(["k1", "k2"]), elements),
)


typed_cases = st.one_of(
    st.tuples(st.just(SetType()), set_states, set_invocations),
    st.tuples(st.just(StackType()), stack_states, stack_invocations),
    st.tuples(st.just(TableType()), table_states, table_invocations),
)


# ----------------------------------------------------------------------
# Declared read-only operations (log removal trusts the flag)
# ----------------------------------------------------------------------
@_settings
@given(case=typed_cases)
def test_a_read_only_operation_never_moves_a_state(case):
    spec, state, invocation = case
    if spec.operation(invocation.op).is_read_only:
        assert spec.states_equal(spec.apply(state, invocation).state, state)


# ----------------------------------------------------------------------
# Lemma 1 and table/semantics agreement
# ----------------------------------------------------------------------
class TestLemma1CommutativityImpliesRecoverability:
    @_settings
    @given(first=set_invocations, second=set_invocations, states=st.lists(set_states, min_size=1, max_size=4))
    def test_on_sets(self, first, second, states):
        spec = SetType()
        if invocations_commute(spec, first, second, states):
            assert invocation_recoverable(spec, first, second, states)
            assert invocation_recoverable(spec, second, first, states)

    @_settings
    @given(first=stack_invocations, second=stack_invocations, states=st.lists(stack_states, min_size=1, max_size=4))
    def test_on_stacks(self, first, second, states):
        spec = StackType()
        if invocations_commute(spec, first, second, states):
            assert invocation_recoverable(spec, first, second, states)
            assert invocation_recoverable(spec, second, first, states)


class TestDeclaredTablesAgainstRandomStates:
    """If a declared entry admits a concrete pair, the semantics must admit it
    on *any* state — checked here on random states, not just the samples."""

    @_settings
    @given(requested=set_invocations, executed=set_invocations, state=set_states)
    def test_set_recoverability_entries_are_safe(self, requested, executed, state):
        spec = SetType()
        declared = spec.compatibility()
        if declared.recoverable(requested, executed, spec):
            assert invocation_recoverable(spec, requested, executed, [state])

    @_settings
    @given(requested=stack_invocations, executed=stack_invocations, state=stack_states)
    def test_stack_commutativity_entries_are_safe(self, requested, executed, state):
        spec = StackType()
        declared = spec.compatibility()
        if declared.commute(requested, executed, spec):
            assert invocations_commute(spec, requested, executed, [state])

    @_settings
    @given(requested=table_invocations, executed=table_invocations, state=table_states)
    def test_table_entries_are_safe(self, requested, executed, state):
        spec = TableType()
        declared = spec.compatibility()
        if declared.commute(requested, executed, spec):
            assert invocations_commute(spec, requested, executed, [state])
        if declared.recoverable(requested, executed, spec):
            assert invocation_recoverable(spec, requested, executed, [state])


# ----------------------------------------------------------------------
# Scheduler-level invariants (Theorem 1, Lemmas 3 and 4)
# ----------------------------------------------------------------------
def _drive_scheduler(policy, script):
    """Run a random script of (transaction index, object, invocation, action)
    steps through a scheduler over a stack and a set object."""
    scheduler = Scheduler(policy=policy)
    scheduler.register_object("S", StackType())
    scheduler.register_object("X", SetType())
    transactions = [scheduler.begin() for _ in range(3)]
    for transaction_index, object_name, invocation, action in script:
        transaction = transactions[transaction_index]
        status = scheduler.transaction(transaction.tid).status
        if action == "commit":
            if status.name == "ACTIVE":
                scheduler.commit(transaction.tid)
            continue
        if action == "abort":
            if status.name in ("ACTIVE", "BLOCKED"):
                scheduler.abort(transaction.tid)
            continue
        if status.name == "ACTIVE":
            scheduler.submit(transaction.tid, object_name, invocation)
    # Terminate whatever is still running so the final log is complete.
    for transaction in transactions:
        if scheduler.transaction(transaction.tid).status.name == "ACTIVE":
            scheduler.commit(transaction.tid)
        elif scheduler.transaction(transaction.tid).status.name == "BLOCKED":
            scheduler.abort(transaction.tid)
    return scheduler


script_steps = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=2),
        st.sampled_from(["S", "X"]),
        st.one_of(stack_invocations, set_invocations),
        st.sampled_from(["op", "op", "op", "commit", "abort"]),
    ),
    min_size=1,
    max_size=12,
)


def _invocation_matches_object(object_name, invocation):
    stack_ops = {"push", "pop", "top"}
    return (invocation.op in stack_ops) == (object_name == "S")


class TestSchedulerProducesCorrectHistories:
    @_settings
    @given(script=script_steps, policy=st.sampled_from(list(ConflictPolicy)))
    def test_admitted_histories_are_sound_and_serializable(self, script, policy):
        script = [step for step in script if step[3] != "op" or _invocation_matches_object(step[1], step[2])]
        scheduler = _drive_scheduler(policy, script)
        universe = ObjectUniverse(specs={"S": StackType(), "X": SetType()})
        log = scheduler.history
        committed_log = log.without_transactions(log.aborted())
        assert is_log_sound(committed_log, universe)
        assert is_serializable(committed_log, universe)

    @_settings
    @given(script=script_steps, policy=st.sampled_from(list(ConflictPolicy)))
    def test_no_transaction_is_left_live_and_graph_is_empty(self, script, policy):
        script = [step for step in script if step[3] != "op" or _invocation_matches_object(step[1], step[2])]
        scheduler = _drive_scheduler(policy, script)
        live = [t for t in scheduler.transactions.values() if t.status.is_live]
        # Everything terminated, so no commit dependencies may remain.
        assert scheduler.graph.edge_count() == 0
        assert all(t.status.name in ("COMMITTED", "ABORTED") for t in scheduler.transactions.values()) or not live

    @_settings
    @given(script=script_steps)
    def test_committed_state_matches_serial_replay_in_commit_order(self, script):
        script = [step for step in script if step[3] != "op" or _invocation_matches_object(step[1], step[2])]
        scheduler = _drive_scheduler(ConflictPolicy.RECOVERABILITY, script)
        log = scheduler.history
        # Replay committed transactions' operations serially in commit order.
        commit_order = [
            record.transaction_id
            for record in log.records()
            if record.kind.name == "COMMIT"
        ]
        stack_spec, set_spec = StackType(), SetType()
        states = {"S": stack_spec.initial_state(), "X": set_spec.initial_state()}
        specs = {"S": stack_spec, "X": set_spec}
        for transaction_id in commit_order:
            for event in log.events_of(transaction_id):
                states[event.object_name] = specs[event.object_name].next_state(
                    states[event.object_name], event.invocation
                )
        assert scheduler.committed_state("S") == states["S"]
        assert scheduler.committed_state("X") == states["X"]


# ----------------------------------------------------------------------
# Dependency graph structural properties
# ----------------------------------------------------------------------
class TestDependencyGraphProperties:
    @_settings
    @given(
        edges=st.lists(
            st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=20
        )
    )
    def test_creates_cycle_agrees_with_actual_insertion(self, edges):
        graph = DependencyGraph()
        for source, target in edges:
            if source == target:
                continue
            predicted = graph.creates_cycle(source, {target})
            graph.add_edge(source, target, EdgeKind.WAIT_FOR)
            assert graph.has_cycle() == predicted or graph.has_cycle()
            if predicted:
                assert graph.has_cycle()
                break

    @_settings
    @given(
        edges=st.lists(
            st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=15
        ),
        victim=st.integers(0, 5),
    )
    def test_removing_a_node_removes_all_its_edges(self, edges, victim):
        graph = DependencyGraph()
        for source, target in edges:
            graph.add_edge(source, target, EdgeKind.COMMIT_DEPENDENCY)
        graph.remove_node(victim)
        assert victim not in graph.nodes()
        for edge in graph.edges():
            assert victim not in (edge.source, edge.target)


# ----------------------------------------------------------------------
# Simulator metric invariants
# ----------------------------------------------------------------------
class TestSimulatorProperties:
    @settings(max_examples=6, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        seed=st.integers(0, 10_000),
        mpl=st.integers(2, 8),
        database_size=st.integers(20, 60),
        policy=st.sampled_from(list(ConflictPolicy)),
        workload=st.sampled_from(["readwrite", "adt"]),
    )
    def test_runs_complete_with_consistent_metrics(self, seed, mpl, database_size, policy, workload):
        params = SimulationParameters(
            database_size=database_size,
            num_terminals=15,
            mpl_level=mpl,
            total_completions=40,
            policy=policy,
            seed=seed,
        )
        metrics = run_simulation(params, workload)
        assert metrics.completions >= params.total_completions
        assert metrics.commits + metrics.pseudo_commits == metrics.completions
        assert metrics.simulated_time > 0
        assert metrics.throughput > 0
        assert metrics.blocking_ratio >= 0
        assert metrics.restart_ratio >= 0
        if policy is ConflictPolicy.COMMUTATIVITY:
            assert metrics.pseudo_commits == 0
