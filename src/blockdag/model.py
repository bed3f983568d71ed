"""Core vocabulary: transactions, blocks, the state store, and run reports.

Addresses are opaque byte strings namespaced by a family prefix. A
transaction declares the addresses it will read and write up front; nothing
in the engine ever infers access sets by executing transaction logic.

A run report holds what an executor decides, the commit order and the
failure count, and nothing the caller can measure itself: callers time
the executor call and digest the store they passed in.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

if TYPE_CHECKING:
    from .families import FamilyOp

Address = bytes


class _AbsentType:
    """Sentinel for reads of addresses that hold no value."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "ABSENT"

    def __bool__(self) -> bool:
        return False


ABSENT = _AbsentType()


@dataclass(frozen=True, slots=True)
class Transaction:
    """One block entry: position, declared access sets, and family payload.

    ``declared_dependencies`` is the transaction's tuple of predecessor
    indices when its block carries a shared dependency DAG, and ``None``
    otherwise. Any other sequence is stored as a tuple, so a transaction
    equals and hashes like its tuple twin, and no later change to the
    caller's sequence reaches it. Every dependency is an ``int`` in
    ``[0, index)``, a ``bool`` not counting as one, or ``ValueError``
    names the first, in list order, that is not. This constructor, which
    ``dataclasses.replace`` also runs, is the one place that range is
    checked: the serializer and the validator rely on it, and the
    validator judges what it leaves open, a repeated dependency.

    The fields live in slots. The constructor stores each one through its
    slot descriptor, which skips the frozen ``__setattr__`` that the
    generated ``__init__`` goes through once per field; equality, hashing,
    ``repr``, ``dataclasses.replace`` and frozenness are the dataclass's.
    The one exception to the constructor is the codec: ``parse_block`` and
    ``attach_dag`` fill a layout twin (``codec._TxnFields``, this class's
    slots and nothing else) with plain attribute stores and retype it to
    this class, and hand it only tuples, ``()`` or ``None`` as
    dependencies, which already meet both rules: the parser checks each
    list it reads against its transaction, and a ``DependencyDAG`` holds
    only predecessors below theirs.
    """

    index: int
    read_set: frozenset[Address]
    write_set: frozenset[Address]
    payload: "FamilyOp"
    declared_dependencies: tuple[int, ...] | None = None

    def __init__(
        self,
        index: int,
        read_set: frozenset[Address],
        write_set: frozenset[Address],
        payload: "FamilyOp",
        declared_dependencies: tuple[int, ...] | None = None,
    ) -> None:
        _set_index(self, index)
        _set_read_set(self, read_set)
        _set_write_set(self, write_set)
        _set_payload(self, payload)
        if declared_dependencies is not None:
            if type(declared_dependencies) is not tuple:
                declared_dependencies = tuple(declared_dependencies)
            for dep in declared_dependencies:
                if type(dep) is not int or not 0 <= dep < index:
                    raise ValueError(f"transaction {index} declares invalid dependency {dep!r}")
        _set_declared_dependencies(self, declared_dependencies)


_set_index = Transaction.index.__set__
_set_read_set = Transaction.read_set.__set__
_set_write_set = Transaction.write_set.__set__
_set_payload = Transaction.payload.__set__
_set_declared_dependencies = Transaction.declared_dependencies.__set__


@dataclass(frozen=True)
class Block:
    """Ordered transaction list, optionally carrying a whole shared DAG:
    every transaction carries ``declared_dependencies`` exactly when
    ``shared_indegree`` is set, or ``ValueError`` is raised. Both fields are
    stored as tuples, whatever sequence the caller passed, so a block equals
    and hashes like any other with the same entries, and no later change to
    the caller's sequence reaches it. Every indegree entry is an ``int`` in
    ``[0, n)`` for ``n`` transactions, a ``bool`` not counting as one, or
    ``ValueError`` names the first that is not. This constructor, which
    ``dataclasses.replace`` also runs, is where a block is checked, and the
    serializer relies on every block's indegrees; only the trusted makers,
    through ``_checked``, skip it."""

    transactions: tuple[Transaction, ...]
    shared_indegree: tuple[int, ...] | None = None

    # True only on a block made by ``_checked``: every transaction's sets are
    # its op's. It is not a field, so equality, hashing, repr, ``Block(...)``
    # and ``dataclasses.replace`` never see or set it.
    _is_checked = False
    # True only on a block that ``validator.validate_dag`` found honest by
    # exact compare: every declared list is the ascending tuple of the
    # block's predecessors, so ``dag_from_shared`` wraps them as they are.
    # Like ``_is_checked``, it is not a field and no copy carries it.
    _canonical_deps = False

    @classmethod
    def _checked(
        cls,
        transactions: tuple[Transaction, ...],
        shared_indegree: tuple[int, ...] | None = None,
    ) -> "Block":
        """A block whose maker vouches for its sets, built without the
        constructor: its makers (``block_from_ops``, ``parse_block`` and
        ``attach_dag`` of a checked block) already hand it tuples,
        transactions at their positions, a DAG whole or absent, and
        indegrees that are list lengths or wire-checked entries. The
        serializer trusts its sets instead of deriving them again."""
        block = object.__new__(cls)
        block.__dict__.update(
            transactions=transactions, shared_indegree=shared_indegree, _is_checked=True
        )
        return block

    def __post_init__(self) -> None:
        object.__setattr__(self, "transactions", tuple(self.transactions))
        shared = self.shared_indegree is not None
        for pos, txn in enumerate(self.transactions):
            if txn.index != pos:
                raise ValueError(
                    f"transaction at position {pos} has index {txn.index}"
                )
            if (txn.declared_dependencies is None) is shared:
                raise ValueError(
                    f"block carries an indegree but transaction {pos} has no dependencies"
                    if shared
                    else f"transaction {pos} declares dependencies but the block carries no indegree"
                )
        if shared:
            object.__setattr__(self, "shared_indegree", tuple(self.shared_indegree))
            n = len(self.transactions)
            if len(self.shared_indegree) != n:
                raise ValueError("shared_indegree length does not match txn count")
            for j, entry in enumerate(self.shared_indegree):
                if type(entry) is not int or not 0 <= entry < n:
                    raise ValueError(f"indegree {entry!r} for transaction {j} out of range")

    @property
    def txn_count(self) -> int:
        return len(self.transactions)

    @property
    def has_shared_dag(self) -> bool:
        return self.shared_indegree is not None


class StateStore:
    """Mutable address -> value map shared by the executors.

    Individual get/set calls are atomic under CPython; the schedulers
    guarantee that no two in-flight transactions touch the same address, so
    no store-wide lock is taken on any execution path. Values must be
    treated as immutable by processors: update by writing a new value, never
    by mutating a fetched one in place.
    """

    __slots__ = ("_entries",)

    def __init__(self, initial: Mapping[Address, object] | None = None) -> None:
        self._entries: dict[Address, object] = dict(initial) if initial else {}

    def get(self, address: Address):
        return self._entries.get(address, ABSENT)

    def set(self, address: Address, value) -> None:
        self._entries[address] = value

    def __len__(self) -> int:
        return len(self._entries)

    def copy(self) -> "StateStore":
        return StateStore(self._entries)


# Canonical JSON keeps the digest independent of dict insertion order. One
# encoder serves every value; its settings are what json.dumps would build.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
_LENGTH = struct.Struct("<I")


def _canonical_value(value) -> bytes:
    # a plain int encodes as its repr in JSON too; bool, an int subclass,
    # still goes through the encoder and stays true/false
    if type(value) is int:
        return repr(value).encode()
    return _ENCODER.encode(value).encode()


def state_digest(store: StateStore) -> bytes:
    """SHA-256 over the sorted entry set; insertion order never matters.

    Each entry contributes its u32 address length, the address, the u32
    length of the value's canonical JSON and that JSON, and the whole run
    is hashed in one call.
    """
    entries = store._entries
    parts = []
    for address in sorted(entries):
        encoded = _canonical_value(entries[address])
        parts += (_LENGTH.pack(len(address)), address, _LENGTH.pack(len(encoded)), encoded)
    return hashlib.sha256(b"".join(parts)).digest()


@dataclass
class ExecutionReport:
    """Outcome of one block run: the commit order and the failure count.

    Only failures are counted; ``txn_successes`` is derived, every
    committed transaction that did not fail. It holds no wall time and no
    state digest: a caller times the executor call itself and digests the
    store it passed in (``state_digest``).
    """

    schedule: list[int] = field(default_factory=list)
    txn_failures: int = 0

    @property
    def txn_successes(self) -> int:
        return len(self.schedule) - self.txn_failures
