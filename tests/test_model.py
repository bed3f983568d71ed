import pytest

from blockdag.families import block_from_ops, wallet_deposit, wallet_withdraw
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
    txn = structural_txn(0, {b"a"}, set())
    with pytest.raises(ValueError):
        Block((txn,), shared_indegree=(0, 0))


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


def test_store_copy_is_independent():
    store = StateStore({b"a": 1})
    other = store.copy()
    other.set(b"a", 2)
    assert store.get(b"a") == 1
