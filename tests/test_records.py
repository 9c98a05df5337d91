"""The library's records, one case each, built from E8: every record
refuses assignment and deletion, the value records equal and hash like a
copy rebuilt by their constructor, and the others equal only themselves.
A period table copy reads the same levels."""

import pytest

from su2branch.invariants import registry
from su2branch.verify import run_type_checks

from conftest import bundle, replace


#: class -> (its E8 instance from the bundle, one of its fields, compared by value)
RECORDS = {
    "DiagramType": (lambda b: b.dtype, "rank", True),
    "RootSystem": (lambda b: b.rs, "roots", False),
    "Bipartition": (lambda b: b.bp, "part1", True),
    "CoxeterAction": (lambda b: b.cox, "sigma", False),
    "OrbitTable": (lambda b: b.table, "exponent", False),
    "BranchParams": (lambda b: b.params, "a", True),
    "HeisenbergSubsystem": (lambda b: b.heisenberg, "indices", False),
    "Branching": (lambda b: b, "zpolys", False),
    "PeriodTable": (lambda b: b.periods("recursion"), "step", False),
    "McKayGraph": (lambda b: b.graph, "adjacency", False),
    "FiniteGroup": (lambda b: b.group, "elements", False),
    "CharacterTable": (lambda b: b.character_table, "rows", False),
    "Invariant": (lambda b: registry("E8")[0], "predicate", True),
    "Check": (lambda b: run_type_checks("E8")[0], "passed", True),
}


def _build(name):
    obj = RECORDS[name][0](bundle("E8"))
    assert type(obj).__name__ == name
    return obj


FIELDS = [(name, field) for name, (_, field, _) in RECORDS.items()]
BY_VALUE = [(name, field) for name, (_, field, by_value) in RECORDS.items() if by_value]
BY_IDENTITY = [(name, field) for name, (_, field, by_value) in RECORDS.items() if not by_value]


@pytest.mark.parametrize("name, field", FIELDS)
def test_read_only_records_refuse_assignment_and_deletion(name, field):
    obj = _build(name)
    value = getattr(obj, field)
    with pytest.raises(AttributeError):
        setattr(obj, field, value)
    with pytest.raises(AttributeError):
        delattr(obj, field)
    with pytest.raises(AttributeError):
        obj.unknown_field = value
    assert getattr(obj, field) is value


@pytest.mark.parametrize("name, field", BY_VALUE)
def test_value_records_equal_and_hash_like_a_rebuilt_copy(name, field):
    obj = _build(name)
    copy = replace(obj)
    assert copy is not obj and type(copy) is type(obj)
    assert copy == obj and not copy != obj
    assert hash(copy) == hash(obj)


@pytest.mark.parametrize("name, field", BY_IDENTITY)
def test_identity_records_do_not_equal_a_rebuilt_copy(name, field):
    obj = _build(name)
    copy = replace(obj)
    assert type(copy) is type(obj) and getattr(copy, field) is getattr(obj, field)
    assert copy != obj and not copy == obj
    assert obj == obj and hash(obj) == hash(obj)


def test_a_period_table_copy_reads_the_same_levels():
    table = _build("PeriodTable")
    copy = replace(table)
    assert copy is not table and copy.base is table.base and copy.step is table.step
    assert list(copy) == list(table)
