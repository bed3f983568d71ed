"""The four smart-contract workloads and their deterministic processors.

Each op factory fixes the declared read/write sets at build time; the
processors never touch an address outside those sets. Logical failures
(overdraft, double vote, missing key) return False and leave state
untouched — they are recorded, not raised, and never block successors.

The voting family deliberately declares coarse access sets: every op reads
and writes the two global registry addresses, so any two voting
transactions in a block conflict. That pathology is intentional and is
exercised by the benchmark suite.

One table, ``OP_SCHEMAS``, gives each opcode's argument kinds and the rule
that derives its read and write sets from its arguments. ``FamilyOp``
checks each op against it once, where it is made; ``declared_sets``,
``apply_op`` and the wire codec in both directions index it directly, so a
block read off the wire carries the sets its ops declare and no others.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, NamedTuple

from .model import ABSENT, Address, Block, StateStore, Transaction

WALLET = "wallet"
INTKEY = "intkey"
VOTING = "voting"
INSURANCE = "insurance"
FAMILIES = (WALLET, INTKEY, VOTING, INSURANCE)

U64_MAX = 2**64 - 1

VOTING_PARTIES_ADDR: Address = b"voting/parties"
VOTING_VOTERS_ADDR: Address = b"voting/voters"


@dataclass(frozen=True, slots=True)
class FamilyOp:
    """Family tag plus opcode and its (hashable) arguments, checked once.

    The constructor raises ``ValueError`` for an op not in ``OP_SCHEMAS`` or
    for arguments that are not a tuple of the kinds it gives. Only the
    parser, which has checked and decoded each argument, skips it, setting
    the slots inline. Slot-backed like ``model.Transaction``: each field is
    stored through its slot descriptor.
    """

    family: str
    opcode: str
    args: tuple

    def __init__(self, family: str, opcode: str, args: tuple) -> None:
        shape = _SHAPES.get((family, opcode))
        if shape is None:
            raise ValueError(f"unknown op: {family!r}/{opcode!r}")
        if not _args_fit(args, shape):
            kinds = ", ".join(OP_SCHEMAS[family, opcode].args)
            raise ValueError(f"{family}/{opcode} takes ({kinds}), got {args!r}")
        _set_family(self, family)
        _set_opcode(self, opcode)
        _set_args(self, args)


_set_family = FamilyOp.family.__set__
_set_opcode = FamilyOp.opcode.__set__
_set_args = FamilyOp.args.__set__


def wallet_addr(account: str) -> Address:
    return b"wallet/" + account.encode()


def intkey_addr(key: str) -> Address:
    return b"intkey/" + key.encode()


def insurance_addr(record_id: str) -> Address:
    return b"insurance/" + record_id.encode()


def wallet_create(account: str) -> FamilyOp:
    return FamilyOp(WALLET, "create", (account,))


def wallet_deposit(account: str, amount: int) -> FamilyOp:
    return FamilyOp(WALLET, "deposit", (account, amount))


def wallet_withdraw(account: str, amount: int) -> FamilyOp:
    return FamilyOp(WALLET, "withdraw", (account, amount))


def wallet_transfer(src: str, dst: str, amount: int) -> FamilyOp:
    return FamilyOp(WALLET, "transfer", (src, dst, amount))


def intkey_set(key: str, value: int) -> FamilyOp:
    return FamilyOp(INTKEY, "set", (key, value))


def intkey_inc(key: str, delta: int) -> FamilyOp:
    return FamilyOp(INTKEY, "inc", (key, delta))


def intkey_dec(key: str, delta: int) -> FamilyOp:
    return FamilyOp(INTKEY, "dec", (key, delta))


def voting_create_party(party: str) -> FamilyOp:
    return FamilyOp(VOTING, "create_party", (party,))


def voting_add_voter(voter: str) -> FamilyOp:
    return FamilyOp(VOTING, "add_voter", (voter,))


def voting_vote(voter: str, party: str) -> FamilyOp:
    return FamilyOp(VOTING, "vote", (voter, party))


def insurance_create(record_id: str, fields: Mapping[str, str]) -> FamilyOp:
    return FamilyOp(INSURANCE, "create_record", (record_id, tuple(sorted(fields.items()))))


def insurance_update(record_id: str, fields: Mapping[str, str]) -> FamilyOp:
    return FamilyOp(INSURANCE, "update_record", (record_id, tuple(sorted(fields.items()))))


def insurance_read(record_id: str) -> FamilyOp:
    return FamilyOp(INSURANCE, "read_record", (record_id,))


# Argument kinds, one per wire argument: a UTF-8 string, an integer in u64
# range (a bool is not one), or a tuple of (str, str) field pairs.
STR = "str"
U64 = "u64"
PAIRS = "pairs"

_REGISTRIES = frozenset({VOTING_VOTERS_ADDR, VOTING_PARTIES_ADDR})
_NOTHING: frozenset[Address] = frozenset()


def _account_sets(args: tuple) -> tuple[frozenset[Address], frozenset[Address]]:
    addrs = frozenset((wallet_addr(args[0]),))
    return addrs, addrs


def _transfer_sets(args: tuple) -> tuple[frozenset[Address], frozenset[Address]]:
    addrs = frozenset((wallet_addr(args[0]), wallet_addr(args[1])))
    return addrs, addrs


def _key_sets(args: tuple) -> tuple[frozenset[Address], frozenset[Address]]:
    addrs = frozenset((intkey_addr(args[0]),))
    return addrs, addrs


def _registry_sets(args: tuple) -> tuple[frozenset[Address], frozenset[Address]]:
    # Coarse by design: the whole voter and party registries.
    return _REGISTRIES, _REGISTRIES


def _record_sets(args: tuple) -> tuple[frozenset[Address], frozenset[Address]]:
    addrs = frozenset((insurance_addr(args[0]),))
    return addrs, addrs


def _record_read_sets(args: tuple) -> tuple[frozenset[Address], frozenset[Address]]:
    return frozenset((insurance_addr(args[0]),)), _NOTHING


class OpSchema(NamedTuple):
    """What one opcode takes and touches.

    ``args`` gives the kind of each argument in order, and ``sets`` maps
    arguments of those kinds to the op's read and write address sets.
    """

    args: tuple[str, ...]
    sets: Callable[[tuple], tuple[frozenset[Address], frozenset[Address]]]


# The one table of opcodes: FamilyOp checks each op against it, and
# declared_sets and the wire codec derive from it in both directions.
OP_SCHEMAS: dict[tuple[str, str], OpSchema] = {
    (WALLET, "create"): OpSchema((STR,), _account_sets),
    (WALLET, "deposit"): OpSchema((STR, U64), _account_sets),
    (WALLET, "withdraw"): OpSchema((STR, U64), _account_sets),
    (WALLET, "transfer"): OpSchema((STR, STR, U64), _transfer_sets),
    (INTKEY, "set"): OpSchema((STR, U64), _key_sets),
    (INTKEY, "inc"): OpSchema((STR, U64), _key_sets),
    (INTKEY, "dec"): OpSchema((STR, U64), _key_sets),
    (VOTING, "create_party"): OpSchema((STR,), _registry_sets),
    (VOTING, "add_voter"): OpSchema((STR,), _registry_sets),
    (VOTING, "vote"): OpSchema((STR, STR), _registry_sets),
    (INSURANCE, "create_record"): OpSchema((STR, PAIRS), _record_sets),
    (INSURANCE, "update_record"): OpSchema((STR, PAIRS), _record_sets),
    (INSURANCE, "read_record"): OpSchema((STR,), _record_read_sets),
}

# What FamilyOp checks per op: each argument's type, then the positions of
# the u64 and pairs arguments, whose values their type does not bound.
_KIND_TYPES = {STR: str, U64: int, PAIRS: tuple}
_SHAPES = {
    key: (
        tuple(_KIND_TYPES[kind] for kind in schema.args),
        tuple(k for k, kind in enumerate(schema.args) if kind == U64),
        tuple(k for k, kind in enumerate(schema.args) if kind == PAIRS),
    )
    for key, schema in OP_SCHEMAS.items()
}


def _args_fit(args, shape) -> bool:
    types, u64_at, pairs_at = shape
    if type(args) is not tuple or tuple(map(type, args)) != types:
        return False  # a bool's type is not int
    for k in u64_at:
        if not 0 <= args[k] <= U64_MAX:
            return False
    for k in pairs_at:
        for pair in args[k]:
            if type(pair) is not tuple or tuple(map(type, pair)) != (str, str):
                return False
    return True


def declared_sets(op: FamilyOp) -> tuple[frozenset[Address], frozenset[Address]]:
    """Read and write address sets implied by an op, fixed at build time."""
    return OP_SCHEMAS[op.family, op.opcode].sets(op.args)


def make_transaction(index: int, op: FamilyOp) -> Transaction:
    read_set, write_set = declared_sets(op)
    return Transaction(index, read_set, write_set, op)


def block_from_ops(ops) -> Block:
    """Assemble a block, assigning indices by position; each transaction's
    sets come from ``declared_sets``, so the block is a checked one."""
    return Block._checked(tuple(make_transaction(i, op) for i, op in enumerate(ops)))


def _apply_wallet(op: FamilyOp, store: StateStore) -> bool:
    opcode = op.opcode
    if opcode == "create":
        addr = wallet_addr(op.args[0])
        if store.get(addr) is not ABSENT:
            return False
        store.set(addr, 0)
        return True
    if opcode == "deposit":
        addr = wallet_addr(op.args[0])
        balance = store.get(addr)
        if balance is ABSENT:
            balance = 0
        new_balance = balance + op.args[1]
        if new_balance > U64_MAX:
            return False
        store.set(addr, new_balance)
        return True
    if opcode == "withdraw":
        addr = wallet_addr(op.args[0])
        balance = store.get(addr)
        if balance is ABSENT or balance < op.args[1]:
            return False
        store.set(addr, balance - op.args[1])
        return True
    # transfer
    src = wallet_addr(op.args[0])
    dst = wallet_addr(op.args[1])
    amount = op.args[2]
    src_balance = store.get(src)
    if src_balance is ABSENT or src_balance < amount:
        return False
    if src == dst:
        return True  # self-transfer moves nothing

    dst_balance = store.get(dst)
    if dst_balance is ABSENT:
        dst_balance = 0
    if dst_balance + amount > U64_MAX:
        return False
    store.set(src, src_balance - amount)
    store.set(dst, dst_balance + amount)
    return True


def _apply_intkey(op: FamilyOp, store: StateStore) -> bool:
    addr = intkey_addr(op.args[0])
    value = store.get(addr)
    if op.opcode == "set":
        # Set-if-absent: observing absence is the point of the sentinel.
        if value is not ABSENT:
            return False
        store.set(addr, op.args[1])
        return True
    if op.opcode == "inc":
        if value is ABSENT or value + op.args[1] > U64_MAX:
            return False
        store.set(addr, value + op.args[1])
        return True
    # dec
    if value is ABSENT or value < op.args[1]:
        return False
    store.set(addr, value - op.args[1])
    return True


def _apply_voting(op: FamilyOp, store: StateStore) -> bool:
    parties = store.get(VOTING_PARTIES_ADDR)
    voters = store.get(VOTING_VOTERS_ADDR)
    parties = {} if parties is ABSENT else parties
    voters = {} if voters is ABSENT else voters
    if op.opcode == "create_party":
        party = op.args[0]
        if party in parties:
            return False
        updated = dict(parties)
        updated[party] = 0
        store.set(VOTING_PARTIES_ADDR, updated)
        return True
    if op.opcode == "add_voter":
        voter = op.args[0]
        if voter in voters:
            return False
        updated = dict(voters)
        updated[voter] = None
        store.set(VOTING_VOTERS_ADDR, updated)
        return True
    # vote
    voter, party = op.args
    if voter not in voters or party not in parties:
        return False
    if voters[voter] is not None:
        return False
    new_voters = dict(voters)
    new_voters[voter] = party
    new_parties = dict(parties)
    new_parties[party] += 1
    store.set(VOTING_VOTERS_ADDR, new_voters)
    store.set(VOTING_PARTIES_ADDR, new_parties)
    return True


def _apply_insurance(op: FamilyOp, store: StateStore) -> bool:
    addr = insurance_addr(op.args[0])
    record = store.get(addr)
    if op.opcode == "create_record":
        if record is not ABSENT:
            return False
        store.set(addr, dict(op.args[1]))
        return True
    if op.opcode == "update_record":
        if record is ABSENT:
            return False
        updated = dict(record)
        updated.update(op.args[1])
        store.set(addr, updated)
        return True
    # read_record
    return record is not ABSENT


_APPLIERS = {
    WALLET: _apply_wallet,
    INTKEY: _apply_intkey,
    VOTING: _apply_voting,
    INSURANCE: _apply_insurance,
}


def apply_op(op: FamilyOp, store: StateStore) -> bool:
    """Run one op against the store; False means logical failure, no change."""
    return _APPLIERS[op.family](op, store)


def apply_transaction(txn: Transaction, store: StateStore) -> bool:
    return apply_op(txn.payload, store)
