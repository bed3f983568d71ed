import dataclasses
import re

import pytest

from blockdag.families import FamilyOp, block_from_ops, wallet_deposit, wallet_withdraw
from blockdag.model import ABSENT, Block, StateStore, Transaction, state_digest
from blockdag.scheduler import execute_block_serial

from _helpers import structural_txn


def test_absent_is_a_singleton_sentinel():
    store = StateStore()
    assert store.get(b"missing") is ABSENT
    assert not ABSENT
    assert repr(ABSENT) == "ABSENT"


def test_digest_deterministic_on_empty_store():
    assert state_digest(StateStore()) == state_digest(StateStore())


def test_digest_differs_on_single_entry_change():
    a = StateStore({b"A": 1})
    b = StateStore({b"A": 2})
    assert state_digest(a) != state_digest(b)
    c = StateStore({b"A": 1, b"B": 2})
    assert state_digest(a) != state_digest(c)


def test_digest_is_insertion_order_insensitive():
    a = StateStore()
    a.set(b"x", 1)
    a.set(b"y", {"k": 2})
    b = StateStore()
    b.set(b"y", {"k": 2})
    b.set(b"x", 1)
    assert state_digest(a) == state_digest(b)


def test_digest_distinguishes_value_types():
    assert state_digest(StateStore({b"a": 1})) != state_digest(StateStore({b"a": "1"}))


# Hex digests of one-entry stores {b"k": value}, frozen so a faster encoder
# cannot change the bytes that nodes compare.
_GOLDEN_DIGESTS = [
    (0, "d6abc8300f37eee2c28db46ad4408421825a0aead9e6d449f131e404a29a49eb"),
    (2**64 - 1, "bde4d4ee85ca45e5d9a82fc854d6935796257dd864b1ec6095b9972d481bc2c9"),
    (2**70, "64625ae4c2b0f67293b486ff98bd8a67d2c42e1f007e424d55023b3d63645da1"),
    (-5, "df7d2f1c59101d2a0c4c66be7de6a7921a60c4fd7b466bf2eb0e4d30921fbf67"),
    (True, "28afa6369d27db1e8bcd40acf2b41a967d7f81b5f4a6bbb5340e675e880b004e"),
    (False, "5a9acd4cb43d22bbef4a00f5c56e4af5d0ea06be37e90841ffdaa9fbfef6c1dc"),
    (None, "4b6fd2024d499ec51501922c38606cdc3cbccd9321ba0dbe7be0e044e3dda5a1"),
    ("ключ-é", "43f15e659ce4ac3723893013b73d1f0a93d22c1d5919ca10504c431147d8415d"),
    (
        {"b": [1, {"z": 2, "a": None}], "a": "x"},
        "a149e09b78b07ac5fcc3fbfee11fbe9026849a46b9f518170c1c41714a75f018",
    ),
]


@pytest.mark.parametrize(
    "value, digest",
    _GOLDEN_DIGESTS,
    ids=["zero", "u64-max", "2-pow-70", "negative", "true", "false", "none", "non-ascii", "nested-dict"],
)
def test_digest_golden_bytes(value, digest):
    assert state_digest(StateStore({b"k": value})).hex() == digest


def test_digest_golden_bytes_empty_and_several_entries():
    empty = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    assert state_digest(StateStore()).hex() == empty
    store = StateStore({b"wallet/b": 7, b"wallet/a": {"y": 1, "x": [True, None]}, b"v": "s"})
    assert (
        state_digest(store).hex()
        == "e4471f4018ed653907c2b3e2e81d9674f3e64aba8e8731f3cf1a479fba7180e8"
    )


def test_digest_rejects_bytes_values():
    with pytest.raises(TypeError):
        state_digest(StateStore({b"k": b"raw"}))


def test_serial_execution_digest_is_reproducible():
    block = block_from_ops([wallet_deposit("a", 100), wallet_withdraw("a", 40)])
    store1, store2 = StateStore(), StateStore()
    execute_block_serial(block, store1)
    execute_block_serial(block, store2)
    assert state_digest(store1) == state_digest(store2)


def test_block_rejects_out_of_position_indices():
    txn = structural_txn(1, {b"a"}, set())
    with pytest.raises(ValueError):
        Block((txn,))


def test_block_rejects_mismatched_indegree_length():
    txn = dataclasses.replace(structural_txn(0, {b"a"}, set()), declared_dependencies=())
    with pytest.raises(ValueError, match="^shared_indegree length does not match txn count$"):
        Block((txn,), shared_indegree=(0, 0))


@pytest.mark.parametrize(
    "deps, indegree, message",
    [
        (((), ()), None, "^transaction 0 declares dependencies but the block carries no indegree$"),
        (((), None), (0, 0), "^block carries an indegree but transaction 1 has no dependencies$"),
    ],
    ids=["lists-without-indegree", "indegree-without-a-list"],
)
def test_block_refuses_a_partial_shared_dag(deps, indegree, message):
    block = block_from_ops([wallet_deposit("a", 1), wallet_deposit("b", 2)])
    transactions = tuple(
        dataclasses.replace(txn, declared_dependencies=d)
        for txn, d in zip(block.transactions, deps)
    )
    with pytest.raises(ValueError, match=message):
        Block(transactions, indegree)


def test_block_shared_dag_flag():
    plain = Block((structural_txn(0, {b"a"}, set()),))
    assert not plain.has_shared_dag
    shared = Block(
        (
            Transaction(
                index=0,
                read_set=frozenset({b"a"}),
                write_set=frozenset(),
                payload=plain.transactions[0].payload,
                declared_dependencies=(),
            ),
        ),
        shared_indegree=(0,),
    )
    assert shared.has_shared_dag
    # any sequence is stored as a tuple, so equality and hashing hold
    listed = dataclasses.replace(shared.transactions[0], declared_dependencies=[])
    for block, copy in (
        (plain, Block(list(plain.transactions))),
        (shared, Block(list(shared.transactions), [0])),
        (shared, Block([listed], [0])),
    ):
        assert copy == block and hash(copy) == hash(block)


def test_store_copy_is_independent():
    store = StateStore({b"a": 1})
    other = store.copy()
    other.set(b"a", 2)
    assert store.get(b"a") == 1


# Each slot-backed record: its field names in order, one value per field,
# the changes dataclasses.replace must make, and the ones it must refuse
# with ValueError. A FamilyOp is checked against the opcode table and a
# Transaction's dependencies against its index, so a change is made only
# when it keeps that rule.
_TRANSACTION_FIELDS = ("index", "read_set", "write_set", "payload", "declared_dependencies")
_RECORDS = {
    "transaction": (
        Transaction,
        _TRANSACTION_FIELDS,
        (
            3,
            frozenset({b"a"}),
            frozenset({b"a", b"b"}),
            FamilyOp("wallet", "create", ("a",)),
            (0, 2),
        ),
        {**dict.fromkeys(_TRANSACTION_FIELDS), "index": 7},  # (0, 2) is below 7
        {"index": 2},  # but not below 2
    ),
    "family-op": (
        FamilyOp,
        ("family", "opcode", "args"),
        ("voting", "vote", ("v", "p")),
        {"args": ("w", "q")},
        dict.fromkeys(("family", "opcode", "args")),
    ),
}


@pytest.mark.parametrize("record", sorted(_RECORDS))
def test_slot_backed_records_keep_the_dataclass_contract(record):
    cls, names, values, changes, refusals = _RECORDS[record]
    assert tuple(f.name for f in dataclasses.fields(cls)) == names
    assert cls.__slots__ == names
    built = cls(*values)
    twin = cls(**dict(zip(names, values)))
    assert built == twin and built is not twin
    assert hash(built) == hash(twin)
    assert not hasattr(built, "__dict__")
    assert tuple(getattr(built, name) for name in names) == values
    fields_repr = ", ".join(f"{name}={value!r}" for name, value in zip(names, values))
    assert repr(built) == f"{cls.__name__}({fields_repr})"
    for name, new in changes.items():
        changed = dataclasses.replace(built, **{name: new})
        assert getattr(changed, name) is new and changed != built
    for name, bad in refusals.items():
        with pytest.raises(ValueError):
            dataclasses.replace(built, **{name: bad})
    for name, value in zip(names, values):
        assert getattr(built, name) is value
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(built, name, value)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(built, name)
    assert dataclasses.replace(built) == built


def test_transaction_dependencies_default_to_none():
    op = FamilyOp("intkey", "set", ("k", 1))
    keys = frozenset({b"intkey/k"})
    by_position = Transaction(0, keys, keys, op)
    by_keyword = Transaction(index=0, read_set=keys, write_set=keys, payload=op)
    assert by_position.declared_dependencies is None
    assert by_position == by_keyword
    assert dataclasses.fields(Transaction)[-1].default is None
    with pytest.raises(TypeError):
        Transaction(0, keys, keys)
    with pytest.raises(TypeError):
        FamilyOp("intkey", "set")


def test_transaction_stores_its_dependencies_as_a_tuple():
    op = FamilyOp("wallet", "create", ("a",))
    keys = frozenset({b"wallet/a"})
    twin = Transaction(1, keys, keys, op, (0,))
    kept = (0,)
    assert Transaction(1, keys, keys, op, kept).declared_dependencies is kept
    for deps in ([0], range(1), iter([0])):
        made = Transaction(1, keys, keys, op, deps)
        assert type(made.declared_dependencies) is tuple
        assert made == twin and hash(made) == hash(twin) and repr(made) == repr(twin)
    assert dataclasses.replace(twin, declared_dependencies=[0]) == twin
    # a later change to the caller's list does not reach the transaction
    listed = [0]
    made = Transaction(1, keys, keys, op, listed)
    listed.append(7)
    assert made == twin



@pytest.mark.parametrize(
    "deps, bad",
    [
        ((-1,), "-1"),
        ((2,), "2"),  # the transaction itself
        ((0, 3), "3"),  # the one after it
        ((1.0,), "1.0"),
        ((True,), "True"),  # a bool is not an int here
        (("0",), "'0'"),
        ((0, 5, -1), "5"),  # the first bad one, in list order
    ],
    ids=["negative", "itself", "after-it", "float", "bool", "str", "first-of-two"],
)
def test_transaction_refuses_a_dependency_outside_its_range(deps, bad):
    # the one place the range is checked: the serializer and the validator
    # rely on it, and replace runs the same constructor
    op = FamilyOp("wallet", "create", ("a",))
    keys = frozenset({b"wallet/a"})
    message = f"^transaction 2 declares invalid dependency {re.escape(bad)}$"
    with pytest.raises(ValueError, match=message):
        Transaction(2, keys, keys, op, deps)
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(Transaction(2, keys, keys, op, (0, 1)), declared_dependencies=deps)
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(Transaction(2, keys, keys, op), declared_dependencies=list(deps))
    assert Transaction(2, keys, keys, op, (1, 0, 1)).declared_dependencies == (1, 0, 1)
