"""Shared fixtures-by-hand for the test suite: arbitrary structural blocks,
adversarial DAG mutation, hand-written wire bytes, and small verification
utilities."""

from __future__ import annotations

import random
import struct
import zlib
from dataclasses import replace

from blockdag import codec
from blockdag.families import FamilyOp
from blockdag.model import Block, StateStore, Transaction
from blockdag.workload import WorkloadSpec, generate_block

_DUMMY_OP = FamilyOp("intkey", "set", ("structural", 0))

ALL_FAMILIES = ("wallet", "intkey", "voting", "insurance", "mixed")


def structural_txn(index: int, reads, writes) -> Transaction:
    """Transaction with explicit address sets; never meant to be executed."""
    return Transaction(
        index=index,
        read_set=frozenset(reads),
        write_set=frozenset(writes),
        payload=_DUMMY_OP,
    )


def structural_block(specs) -> Block:
    """Block from (reads, writes) pairs, e.g. [({b"a"}, set()), ...]."""
    return Block(
        tuple(structural_txn(i, r, w) for i, (r, w) in enumerate(specs))
    )


def random_structural_block(rng: random.Random, max_n: int = 64) -> Block:
    """Arbitrary access-set shapes: empty sets, pure reads, wide writes."""
    n = rng.randrange(0, max_n + 1)
    universe = [b"addr%d" % k for k in range(max(1, n))]
    specs = []
    for _ in range(n):
        reads = {rng.choice(universe) for _ in range(rng.randrange(0, 3))}
        writes = {rng.choice(universe) for _ in range(rng.randrange(0, 3))}
        specs.append((reads, writes))
    return structural_block(specs)


def random_family_block(rng: random.Random, n: int | None = None) -> Block:
    spec = WorkloadSpec(
        family=rng.choice(ALL_FAMILIES),
        txns_per_block=n or rng.randrange(2, 48),
        dependency_pct=rng.choice((0, 20, 60, 100)),
        rng_seed=rng.randrange(1 << 30),
    )
    return generate_block(spec)


def remove_one_edge(shared: Block, rng: random.Random) -> Block | None:
    """Drop a random edge from a shared DAG, keeping deps/indegree coherent."""
    candidates = [t.index for t in shared.transactions if t.declared_dependencies]
    if not candidates:
        return None
    j = rng.choice(candidates)
    txn = shared.transactions[j]
    dropped = rng.choice(txn.declared_dependencies)
    new_deps = tuple(d for d in txn.declared_dependencies if d != dropped)
    transactions = list(shared.transactions)
    transactions[j] = replace(txn, declared_dependencies=new_deps)
    indegree = list(shared.shared_indegree)
    indegree[j] -= 1
    return Block(tuple(transactions), tuple(indegree))


def add_spurious_edge(shared: Block, rng: random.Random, tries: int = 200) -> Block | None:
    """Add one low->high edge between transactions that do not conflict."""
    n = shared.txn_count
    if n < 2:
        return None
    for _ in range(tries):
        i = rng.randrange(0, n - 1)
        j = rng.randrange(i + 1, n)
        a, b = shared.transactions[i], shared.transactions[j]
        if i in b.declared_dependencies:
            continue
        if (
            not a.write_set.isdisjoint(b.write_set)
            or not a.write_set.isdisjoint(b.read_set)
            or not a.read_set.isdisjoint(b.write_set)
        ):
            continue
        transactions = list(shared.transactions)
        transactions[j] = replace(b, declared_dependencies=b.declared_dependencies + (i,))
        indegree = list(shared.shared_indegree)
        indegree[j] += 1
        return Block(tuple(transactions), tuple(indegree))
    return None


def assert_topological(schedule: list[int], edges) -> None:
    position = {index: pos for pos, index in enumerate(schedule)}
    for i, j in edges:
        assert position[i] < position[j], f"edge ({i}, {j}) violated by schedule"


def assert_exactly_once(schedule: list[int], n: int) -> None:
    assert sorted(schedule) == list(range(n))


def is_acyclic(n: int, edges) -> bool:
    succ: dict[int, list[int]] = {}
    for i, j in edges:
        succ.setdefault(i, []).append(j)
    WHITE, GREY, BLACK = 0, 1, 2
    color = [WHITE] * n
    for start in range(n):
        if color[start] != WHITE:
            continue
        stack = [(start, iter(succ.get(start, ())))]
        color[start] = GREY
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if color[nxt] == GREY:
                    return False
                if color[nxt] == WHITE:
                    color[nxt] = GREY
                    stack.append((nxt, iter(succ.get(nxt, ()))))
                    advanced = True
                    break
            if not advanced:
                color[node] = BLACK
                stack.pop()
    return True


class TrackingStore(StateStore):
    """Records every address a processor touches, for honesty checks."""

    def __init__(self, initial=None) -> None:
        super().__init__(initial)
        self.reads: set[bytes] = set()
        self.writes: set[bytes] = set()

    def get(self, address):
        self.reads.add(address)
        return super().get(address)

    def set(self, address, value) -> None:
        self.writes.add(address)
        super().set(address, value)

    def reset_tracking(self) -> None:
        self.reads.clear()
        self.writes.clear()


def restamp(data) -> bytes:
    """Bytes with the total length and the CRC recomputed, so only the body lies."""
    data = bytearray(data)
    struct.pack_into("<I", data, 2, len(data))
    struct.pack_into("<I", data, len(data) - 4, zlib.crc32(bytes(data[:-4])))
    return bytes(data)


def unchecked_wire(block: Block, deps=None) -> bytes:
    """v1 bytes for any block, written field by field from docs/wire-format.md
    with none of serialize_block's checks: each argument is tagged by its
    Python type and each set is written ascending as given, so the body may
    lie about its ops. ``deps``, one list per transaction, is written as the
    shared DAG in place of the block's own, so a list that no ``Transaction``
    may hold reaches the parser only as bytes; each indegree entry is its
    list's length."""
    if deps is None and block.has_shared_dag:
        deps = [txn.declared_dependencies for txn in block.transactions]
    has_dag = deps is not None
    out = bytearray(struct.pack("<BBII", 1, int(has_dag), 0, block.txn_count))
    for k, txn in enumerate(block.transactions):
        op = txn.payload
        family_tag = codec._FAMILY_TAGS[op.family]
        out += bytes((family_tag, codec._OPCODE_TAGS[op.family][op.opcode], len(op.args)))
        for arg in op.args:
            if isinstance(arg, int):
                out += struct.pack("<BQ", 0, arg)
            elif isinstance(arg, str):
                out += struct.pack("<BH", 1, len(arg.encode())) + arg.encode()
            else:
                out += struct.pack("<BH", 2, len(arg))
                for pair in arg:
                    for text in pair:
                        out += struct.pack("<H", len(text.encode())) + text.encode()
        for addresses in (txn.read_set, txn.write_set):
            out += struct.pack("<H", len(addresses))
            for address in sorted(addresses):
                out += struct.pack("<H", len(address)) + address
        if has_dag:
            out += struct.pack(f"<I{len(deps[k])}I", len(deps[k]), *deps[k])
    if has_dag:
        out += struct.pack(f"<{block.txn_count}I", *map(len, deps))
    return restamp(out + bytes(4))
