"""The ADT model's random tables: golden answers, shared parts, one cached set.

Section 5.5.2 gives every object its own random compatibility table.  The
pins below were recorded before the tables were made compact: they fix each
table's dense answers and how much of the random stream a table consumes,
so a change to how tables are stored cannot change what they say.
"""

import gc
import weakref
import zlib

import pytest

import repro.sim.workload as workload_module
from repro.core.policy import ConflictPolicy
from repro.core.scheduler import Scheduler
from repro.sim import AbstractDataTypeWorkload, RandomSource, SimulationParameters
from repro.sim.workload import random_compatibility_table


def dense_crc(tables):
    """crc32 of both relations' answers for every operation pair, in order."""
    cells = []
    for table in tables:
        operations = table.operations
        for requested in operations:
            for executed in operations:
                commute = table.commutativity.answer(requested, executed).value
                recover = table.recoverability.answer(requested, executed).value
                cells.append(f"{requested},{executed}:{commute}/{recover}")
    return zlib.crc32(";".join(cells).encode())


#: (seed, operations, pc, pr, crc32 of five consecutive tables, the stream's
#: next ``index(2**30)``).  Pc=4 and Pc=2 with Pr in {0, 4, 8} are the
#: points of figures 14 and 15; the 2- and 6-operation cases vary the size.
GOLDEN = [
    (1, 4, 4, 0, 240102993, 450874518),
    (1, 4, 4, 4, 701783018, 818629863),
    (1, 4, 4, 8, 194847146, 214748959),
    (1, 4, 2, 0, 674936942, 1063938749),
    (1, 4, 2, 4, 1678063012, 219531151),
    (1, 4, 2, 8, 1404062066, 495782127),
    (1, 2, 2, 1, 3431811013, 1047664193),
    (1, 6, 6, 10, 3868241605, 636493528),
    (7, 4, 4, 0, 4073354002, 461060838),
    (7, 4, 4, 4, 2089687547, 106492238),
    (7, 4, 4, 8, 3388876062, 127992538),
    (7, 4, 2, 0, 3619615759, 155555737),
    (7, 4, 2, 4, 948783431, 265862673),
    (7, 4, 2, 8, 1205920312, 662459676),
    (7, 2, 2, 1, 3351060907, 184570285),
    (7, 6, 6, 10, 3959067603, 918247487),
]


def operations_of(count):
    return tuple(f"op{i}" for i in range(1, count + 1))


@pytest.mark.parametrize("seed, count, pc, pr, crc, next_draw", GOLDEN)
def test_tables_and_stream_match_the_golden_pin(seed, count, pc, pr, crc, next_draw):
    rng = RandomSource(seed)
    tables = [
        random_compatibility_table(operations_of(count), pc, pr, rng, object_name=f"obj{i:05d}")
        for i in range(1, 6)
    ]
    assert dense_crc(tables) == crc
    assert rng.index(1 << 30) == next_draw


def test_tables_over_one_operations_tuple_share_their_parts():
    rng = RandomSource(3)
    first, second = (
        random_compatibility_table(list(operations_of(4)), 4, 8, rng, object_name=name)
        for name in ("obj00001", "obj00002")
    )
    assert first.operations is second.operations
    assert first.op_index is second.op_index
    first_keys = {key: key for key in first.recoverability.entries}
    shared = [key for key in second.recoverability.entries if key in first_keys]
    assert shared  # 12 of 16 entries each: they must overlap
    assert all(first_keys[key] is key for key in shared)
    assert first.commutativity.name == second.commutativity.name == "random commutativity"
    assert (first.type_name, second.type_name) == ("adt-object obj00001", "adt-object obj00002")
    for part in (first, first.commutativity, first.recoverability):
        assert not hasattr(part, "__dict__")


def test_a_different_operations_tuple_shares_nothing():
    four = random_compatibility_table(operations_of(4), 4, 8, RandomSource(3))
    three = random_compatibility_table(operations_of(3), 4, 5, RandomSource(3))
    assert four.op_index is not three.op_index
    four_keys = {key: key for key in four.recoverability.entries}
    shared = [key for key in three.recoverability.entries if key in four_keys]
    assert shared
    assert all(four_keys[key] is not key for key in shared)


# ----------------------------------------------------------------------
# The one cached table set
# ----------------------------------------------------------------------
@pytest.fixture
def generations(monkeypatch):
    """Counts table generations, starting from an empty cache slot."""
    monkeypatch.setattr(workload_module, "_TABLE_SET_SLOT", None)
    calls = []
    generate = workload_module.random_compatibility_table

    def counting(*args, **kwargs):
        calls.append(kwargs.get("object_name"))
        return generate(*args, **kwargs)

    monkeypatch.setattr(workload_module, "random_compatibility_table", counting)
    return calls


def build(seed, pr=4):
    params = SimulationParameters(database_size=12, pc=2, pr=pr, seed=seed)
    workload = AbstractDataTypeWorkload(params, RandomSource(seed))
    workload.register_objects(Scheduler(policy=ConflictPolicy.RECOVERABILITY))
    return list(workload.tables.values())


def test_rebuilding_one_system_reuses_its_tables(generations):
    first = build(seed=1)
    assert len(generations) == 12
    second = build(seed=1)
    assert len(generations) == 12
    assert all(a is b for a, b in zip(first, second, strict=True))


def test_returning_to_an_earlier_system_regenerates_it(generations):
    first = build(seed=1)
    build(seed=2)
    again = build(seed=1)
    assert len(generations) == 36
    assert again == first
    assert all(a is not b for a, b in zip(first, again, strict=True))


def test_only_the_last_table_set_stays_alive(generations):
    alive = []
    for seed, pr in ((1, 0), (2, 4), (3, 8), (4, 4)):
        alive.append([weakref.ref(table) for table in build(seed, pr)])
    gc.collect()
    assert [sum(ref() is not None for ref in refs) for refs in alive] == [0, 0, 0, 12]
