import random

import pytest

from blockdag import families as fam
from blockdag.dag import brute_force_dag, conflicts
from blockdag.model import ABSENT, StateStore, state_digest
from blockdag.workload import WorkloadSpec, generate_block

from _helpers import TrackingStore


def _run(ops, store=None):
    store = store if store is not None else StateStore()
    results = [fam.apply_op(op, store) for op in ops]
    return store, results


# wallet


def test_wallet_create_deposit_withdraw():
    store, results = _run(
        [fam.wallet_create("a"), fam.wallet_deposit("a", 100), fam.wallet_withdraw("a", 30)]
    )
    assert results == [True, True, True]
    assert store.get(fam.wallet_addr("a")) == 70


def test_wallet_withdraw_overdraft_fails_without_change():
    store, results = _run([fam.wallet_create("a"), fam.wallet_withdraw("a", 10)])
    assert results == [True, False]
    assert store.get(fam.wallet_addr("a")) == 0


def test_wallet_transfer_drains_and_credits():
    store, results = _run(
        [fam.wallet_deposit("a", 50), fam.wallet_transfer("a", "b", 50)]
    )
    assert results == [True, True]
    assert store.get(fam.wallet_addr("a")) == 0
    assert store.get(fam.wallet_addr("b")) == 50


def test_wallet_transfer_insufficient_funds():
    store, results = _run(
        [fam.wallet_deposit("a", 10), fam.wallet_transfer("a", "b", 11)]
    )
    assert results == [True, False]
    assert store.get(fam.wallet_addr("a")) == 10
    assert store.get(fam.wallet_addr("b")) is ABSENT


def test_wallet_create_twice_fails():
    _, results = _run([fam.wallet_create("a"), fam.wallet_create("a")])
    assert results == [True, False]


def test_wallet_withdraw_from_absent_account_fails():
    _, results = _run([fam.wallet_withdraw("ghost", 1)])
    assert results == [False]


def test_wallet_deposit_overflow_guard():
    store, results = _run(
        [fam.wallet_deposit("a", fam.U64_MAX), fam.wallet_deposit("a", 1)]
    )
    assert results == [True, False]
    assert store.get(fam.wallet_addr("a")) == fam.U64_MAX


def test_wallet_conservation_under_transfers():
    rng = random.Random(5)
    accounts = [f"a{i}" for i in range(6)]
    store, _ = _run([fam.wallet_deposit(a, 1000) for a in accounts])
    total_before = sum(store.get(fam.wallet_addr(a)) for a in accounts)
    transfers = [
        fam.wallet_transfer(rng.choice(accounts), rng.choice(accounts), rng.randrange(1, 300))
        for _ in range(40)
    ]
    for op in transfers:
        fam.apply_op(op, store)
    total_after = sum(store.get(fam.wallet_addr(a)) for a in accounts)
    assert total_after == total_before


# intkey


def test_intkey_set_inc_dec():
    store, results = _run(
        [fam.intkey_set("k", 5), fam.intkey_inc("k", 2), fam.intkey_dec("k", 3)]
    )
    assert results == [True, True, True]
    assert store.get(fam.intkey_addr("k")) == 4


def test_intkey_inc_absent_fails():
    _, results = _run([fam.intkey_inc("nope", 1)])
    assert results == [False]


def test_intkey_set_is_set_if_absent():
    store, results = _run([fam.intkey_set("k", 1), fam.intkey_set("k", 2)])
    assert results == [True, False]
    assert store.get(fam.intkey_addr("k")) == 1


def test_intkey_dec_underflow_fails():
    store, results = _run([fam.intkey_set("k", 1), fam.intkey_dec("k", 2)])
    assert results == [True, False]
    assert store.get(fam.intkey_addr("k")) == 1


# voting


def test_voting_happy_path_tallies():
    store, results = _run(
        [
            fam.voting_create_party("P"),
            fam.voting_add_voter("V"),
            fam.voting_vote("V", "P"),
        ]
    )
    assert results == [True, True, True]
    assert store.get(fam.VOTING_PARTIES_ADDR)["P"] == 1
    assert store.get(fam.VOTING_VOTERS_ADDR)["V"] == "P"


def test_voting_double_vote_fails():
    store, results = _run(
        [
            fam.voting_create_party("P"),
            fam.voting_create_party("Q"),
            fam.voting_add_voter("V"),
            fam.voting_vote("V", "P"),
            fam.voting_vote("V", "Q"),
        ]
    )
    assert results == [True, True, True, True, False]
    assert store.get(fam.VOTING_PARTIES_ADDR) == {"P": 1, "Q": 0}


def test_voting_unknown_voter_or_party_fails():
    _, results = _run([fam.voting_vote("V", "P")])
    assert results == [False]


def test_any_two_voting_txns_conflict():
    ops = [fam.voting_create_party("P"), fam.voting_add_voter("V"), fam.voting_vote("V", "P")]
    block = fam.block_from_ops(ops)
    for i in range(3):
        for j in range(i + 1, 3):
            assert conflicts(block.transactions[i], block.transactions[j])


# insurance


def test_insurance_create_update_read():
    store, results = _run(
        [
            fam.insurance_create("id1", {"name": "ada", "city": "x", "street": "1"}),
            fam.insurance_update("id1", {"city": "y"}),
            fam.insurance_read("id1"),
        ]
    )
    assert results == [True, True, True]
    assert store.get(fam.insurance_addr("id1")) == {"name": "ada", "city": "y", "street": "1"}


def test_insurance_update_absent_fails():
    _, results = _run([fam.insurance_update("nope", {"city": "y"})])
    assert results == [False]


def test_insurance_read_absent_fails():
    _, results = _run([fam.insurance_read("nope")])
    assert results == [False]


@pytest.mark.parametrize(
    "before, refused",
    [
        ([fam.wallet_deposit("a", 10), fam.wallet_deposit("b", fam.U64_MAX)], fam.wallet_transfer("a", "b", 1)),
        ([fam.voting_create_party("P")], fam.voting_create_party("P")),
        ([fam.voting_add_voter("V")], fam.voting_add_voter("V")),
        ([fam.insurance_create("r", {"f": "v"})], fam.insurance_create("r", {"f": "w"})),
    ],
    ids=["transfer-overflows-destination", "party-twice", "voter-twice", "record-twice"],
)
def test_refused_ops_return_false_and_leave_the_store_unchanged(before, refused):
    store, results = _run(before)
    assert all(results)
    digest = state_digest(store)
    assert fam.apply_op(refused, store) is False
    assert state_digest(store) == digest


def test_insurance_reads_do_not_conflict():
    block = fam.block_from_ops([fam.insurance_read("r"), fam.insurance_read("r")])
    assert brute_force_dag(block).edge_count == 0


# declared sets and dispatch


def test_declared_sets_match_op_shape():
    read, write = fam.declared_sets(fam.wallet_transfer("a", "b", 1))
    assert read == write == frozenset({fam.wallet_addr("a"), fam.wallet_addr("b")})
    read, write = fam.declared_sets(fam.insurance_read("r"))
    assert read == frozenset({fam.insurance_addr("r")})
    assert write == frozenset()
    read, write = fam.declared_sets(fam.voting_vote("v", "p"))
    assert read == write == frozenset({fam.VOTING_VOTERS_ADDR, fam.VOTING_PARTIES_ADDR})


def test_block_from_ops_assigns_positions():
    block = fam.block_from_ops([fam.intkey_set("a", 1), fam.intkey_set("b", 2)])
    assert [t.index for t in block.transactions] == [0, 1]


def test_processors_touch_only_declared_addresses():
    for family in ("wallet", "intkey", "voting", "insurance", "mixed"):
        spec = WorkloadSpec(family=family, txns_per_block=40, dependency_pct=60, rng_seed=9)
        block = generate_block(spec)
        store = TrackingStore()
        for txn in block.transactions:
            store.reset_tracking()
            fam.apply_transaction(txn, store)
            assert store.reads <= txn.read_set, (family, txn.payload)
            assert store.writes <= txn.write_set, (family, txn.payload)


def test_same_ops_same_digest():
    ops = [fam.intkey_set("k", 1), fam.intkey_inc("k", 5), fam.intkey_dec("k", 2)]
    digests = set()
    for _ in range(2):
        store, _ = _run(ops)
        digests.add(state_digest(store))
    assert len(digests) == 1


def test_invalid_op_arguments_raise_at_build_time():
    with pytest.raises(ValueError):
        fam.wallet_deposit("a", -1)
    with pytest.raises(ValueError):
        fam.intkey_set("k", fam.U64_MAX + 1)
    with pytest.raises(ValueError):
        fam.wallet_deposit("a", True)


def test_unknown_ops_raise():
    # at construction, so apply_op and declared_sets never see one
    for family, opcode, args in (("wallet", "burn", ("a",)), ("lottery", "draw", ()), ("voting", "deposit", ("a", 1))):
        with pytest.raises(ValueError, match=f"^unknown op: '{family}'/'{opcode}'$"):
            fam.FamilyOp(family, opcode, args)
