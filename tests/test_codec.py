import hashlib
import random
import struct
import zlib
from dataclasses import replace

import pytest

from blockdag import codec
from blockdag.codec import (
    BlockCodecError,
    BlockTooLargeError,
    ChecksumMismatchError,
    MalformedBlockError,
    TruncatedBlockError,
    attach_dag,
    parse_block,
    serialize_block,
)
from blockdag.dag import DependencyDAG, build_dag, dag_from_shared
from blockdag.families import (
    OP_SCHEMAS,
    PAIRS,
    STR,
    U64,
    U64_MAX,
    FamilyOp,
    block_from_ops,
    declared_sets,
    insurance_create,
    insurance_read,
    insurance_update,
    intkey_dec,
    intkey_inc,
    intkey_set,
    voting_add_voter,
    voting_create_party,
    voting_vote,
    wallet_create,
    wallet_deposit,
    wallet_transfer,
    wallet_withdraw,
)
from blockdag.model import Block, StateStore, Transaction, state_digest
from blockdag.scheduler import execute_block_parallel, execute_block_serial
from blockdag.tree import build_predecessor_tree, execute_block_tree
from blockdag.validator import Verdict, validate_dag
from blockdag.workload import WorkloadSpec, generate_block

from _helpers import random_family_block


def _random_shared_block(rng):
    block = random_family_block(rng)
    return attach_dag(block, build_dag(block, workers=2))


def _restamp(data) -> bytes:
    """Bytes with the total length and the CRC recomputed, so only the body lies."""
    data = bytearray(data)
    struct.pack_into("<I", data, 2, len(data))
    struct.pack_into("<I", data, len(data) - 4, zlib.crc32(bytes(data[:-4])))
    return bytes(data)


def test_round_trip_plain_block():
    rng = random.Random(3)
    for _ in range(20):
        block = random_family_block(rng)
        parsed = parse_block(serialize_block(block))
        assert parsed == block
        assert parsed.shared_indegree is None


def test_round_trip_shared_block():
    rng = random.Random(5)
    for _ in range(20):
        shared = _random_shared_block(rng)
        parsed = parse_block(serialize_block(shared))
        assert parsed == shared
        assert parsed.has_shared_dag


def test_round_trip_preserves_indices_and_sets():
    rng = random.Random(7)
    block = random_family_block(rng)
    parsed = parse_block(serialize_block(block))
    for original, back in zip(block.transactions, parsed.transactions):
        assert back.index == original.index
        assert back.read_set == original.read_set
        assert back.write_set == original.write_set
        assert back.payload == original.payload


def test_serialization_is_bit_exact():
    spec = WorkloadSpec(family="mixed", txns_per_block=24, dependency_pct=50, rng_seed=21)
    block = generate_block(spec)
    shared = attach_dag(block, build_dag(block))
    assert serialize_block(shared) == serialize_block(shared)
    reparsed = parse_block(serialize_block(shared))
    assert serialize_block(reparsed) == serialize_block(shared)


def test_golden_bytes_for_fixed_block():
    # Frozen digest of a tiny fixed block; a format change must be deliberate.
    block = block_from_ops([intkey_set("k", 5)])
    digest = hashlib.sha256(serialize_block(block)).hexdigest()
    assert digest == "efd6e8849578140701ce3d5cfa04d6d592c423eb10dfdacb202c32396e134384"


def test_golden_bytes_for_shared_dag_block():
    # Every family, every argument tag (int, string, field pairs), a
    # non-ASCII string, a u64 at its maximum and a shared DAG; frozen so the
    # bulk packing cannot drift from wire format v1.
    block = block_from_ops(
        [
            wallet_create("alice"),
            wallet_deposit("alice", 100),
            wallet_create("bob"),
            wallet_transfer("alice", "bob", 40),
            wallet_withdraw("bob", 2**64 - 1),
            intkey_set("k", 5),
            intkey_inc("k", 2),
            intkey_dec("ключ", 1),
            voting_create_party("red"),
            voting_add_voter("v1"),
            voting_vote("v1", "red"),
            insurance_create("r1", {"name": "ann", "plan": "gold"}),
            insurance_update("r1", {"plan": "silver"}),
            insurance_read("r1"),
        ]
    )
    data = serialize_block(block, build_dag(block))
    assert len(data) == 957
    digest = hashlib.sha256(data).hexdigest()
    assert digest == "41c9f56888d042aebdffaa126cd278a3609b8fd14d2a88afed109fa09f247fb5"
    assert serialize_block(parse_block(data)) == data


def test_single_byte_corruption_always_fails_parse():
    rng = random.Random(11)
    for trial in range(100):
        block = (
            _random_shared_block(rng) if trial % 2 else random_family_block(rng)
        )
        data = bytearray(serialize_block(block))
        pos = rng.randrange(len(data))
        flip = rng.randrange(1, 256)
        data[pos] ^= flip
        with pytest.raises(BlockCodecError):
            parse_block(bytes(data))


def test_truncated_input_is_a_truncation_error():
    block = block_from_ops([intkey_set("k", 1), intkey_set("j", 2)])
    data = serialize_block(block)
    with pytest.raises(TruncatedBlockError):
        parse_block(data[: len(data) - 6])
    with pytest.raises(TruncatedBlockError):
        parse_block(b"\x01")


def test_trailing_garbage_is_malformed():
    data = serialize_block(block_from_ops([intkey_set("k", 1)]))
    with pytest.raises(MalformedBlockError):
        parse_block(data + b"\x00")


def test_checksum_flip_is_detected():
    data = bytearray(serialize_block(block_from_ops([intkey_set("k", 1)])))
    data[-1] ^= 0xFF
    with pytest.raises(ChecksumMismatchError):
        parse_block(bytes(data))
    body = bytearray(serialize_block(block_from_ops([intkey_set("k", 1)])))
    body[10] ^= 0x40
    with pytest.raises(BlockCodecError):
        parse_block(bytes(body))


def test_dependency_not_below_index_rejected_on_parse():
    block = block_from_ops([intkey_set("k", 1), intkey_set("k", 2)])
    shared = attach_dag(block, build_dag(block))
    tampered_txns = list(shared.transactions)
    tampered_txns[1] = replace(tampered_txns[1], declared_dependencies=(1,))
    tampered = Block(tuple(tampered_txns), shared.shared_indegree)
    data = serialize_block(tampered)
    with pytest.raises(MalformedBlockError):
        parse_block(data)


def test_unsupported_version_rejected():
    data = bytearray(serialize_block(block_from_ops([intkey_set("k", 1)])))
    # patch version then re-stamp the checksum so only the version is wrong
    import struct
    import zlib

    data[0] = 2
    struct.pack_into("<I", data, len(data) - 4, zlib.crc32(bytes(data[:-4])))
    with pytest.raises(MalformedBlockError):
        parse_block(bytes(data))


def test_block_cap_enforced(monkeypatch):
    block = block_from_ops([intkey_set(f"k{i}", i) for i in range(5)])
    data = serialize_block(block)
    monkeypatch.setattr(codec, "MAX_BLOCK_TXNS", 4)
    with pytest.raises(BlockTooLargeError):
        serialize_block(block)
    with pytest.raises(BlockTooLargeError):
        parse_block(data)


def test_default_cap():
    assert codec.MAX_BLOCK_TXNS == 4096


def test_attach_dag_requires_matching_sizes():
    block = block_from_ops([intkey_set("k", 1)])
    other = block_from_ops([intkey_set("k", 1), intkey_set("j", 2)])
    dag = build_dag(other)
    with pytest.raises(ValueError):
        attach_dag(block, dag)


def test_serialize_with_dag_argument_embeds_it():
    block = block_from_ops([intkey_set("k", 1), intkey_set("k", 2)])
    data = serialize_block(block, build_dag(block))
    parsed = parse_block(data)
    assert parsed.has_shared_dag
    assert parsed.shared_indegree == (0, 1)
    assert parsed.transactions[1].declared_dependencies == (0,)


def test_empty_block_round_trips():
    empty = Block(())
    assert parse_block(serialize_block(empty)) == empty


@pytest.mark.parametrize(
    "ops, raw, bad",
    [
        ([intkey_set("k", 1)], b"\x01\x01\x00k", b"\x01\x01\x00\xff"),
        (
            [insurance_create("r", {"f": "v"})],
            b"\x01\x00f\x01\x00v",
            b"\x01\x00\xc3\x01\x00v",
        ),
        (
            [insurance_create("r", {"f": "v"})],
            b"\x01\x00f\x01\x00v",
            b"\x01\x00f\x01\x00\x80",
        ),
    ],
    ids=["string", "pair-key", "pair-value"],
)
def test_invalid_utf8_in_a_string_argument_is_malformed(ops, raw, bad):
    data = serialize_block(block_from_ops(ops))
    assert data.count(raw) == 1
    with pytest.raises(MalformedBlockError):
        parse_block(_restamp(data.replace(raw, bad)))


def _cut(data: bytes, at: int) -> bytes:
    """The first ``at`` bytes as a whole message: the body ends at ``at``."""
    return _restamp(data[:at] + bytes(4))


def _string_failures():
    """Each way a string argument can fail to decode, with the error and the
    exact message the parser gives."""
    one = serialize_block(block_from_ops([intkey_set("k", 1)]))
    vote = serialize_block(block_from_ops([voting_vote("v", "party")]))
    two = serialize_block(
        block_from_ops([wallet_transfer("a", "b", 1), wallet_transfer("b", "é", 2)])
    )
    at = two.index("é".encode())
    return {
        # one byte of the u16 length prefix is left in the body
        "prefix-cut-short": (
            _cut(one, 15),
            TruncatedBlockError,
            "needed 2 bytes at offset 14, have 1",
        ),
        # "party" is 5 bytes, and the body ends after 2 of them
        "runs-past-the-body": (
            _cut(vote, vote.index(b"party") + 2),
            TruncatedBlockError,
            "needed 5 bytes at offset 20, have 2",
        ),
        # the second string of the second record
        "not-utf8": (
            _restamp(two[:at] + b"\xc3\x28" + two[at + 2 :]),
            MalformedBlockError,
            "string at offset 84 is not UTF-8: invalid continuation byte",
        ),
    }


@pytest.mark.parametrize("case", ["prefix-cut-short", "runs-past-the-body", "not-utf8"])
def test_string_argument_failures_keep_their_error_and_message(case):
    data, error, message = _string_failures()[case]
    with pytest.raises(error) as caught:
        parse_block(data)
    assert type(caught.value) is error
    assert str(caught.value) == message


# A two-transaction shared block and, for each count field in it (from
# docs/wire-format.md), its offset, width, true value and the lies tried:
# insurance_create("r", {"f": "v"}) then insurance_read("r"), which
# depends on it.
_COUNT_BLOCK_OPS = [insurance_create("r", {"f": "v"}), insurance_read("r")]
_U8_MAX, _U16_MAX, _U32_MAX = 0xFF, 0xFFFF, 0xFFFFFFFF
_COUNT_FIELDS = {
    "txn-count": (6, "<I", 2, (0, 1, 3, 4, 1 << 30, _U32_MAX)),
    "argc": (12, "<B", 2, (1, 3, 4, _U8_MAX)),
    "string-length": (14, "<H", 1, (0, 2, 3, _U16_MAX)),
    "pair-count": (18, "<H", 1, (0, 2, 3, _U16_MAX)),
    "pair-key-length": (20, "<H", 1, (0, 2, 3, _U16_MAX)),
    "read-set-count": (26, "<H", 1, (0, 2, 3, _U16_MAX)),
    "address-length": (28, "<H", 11, (10, 12, 13, _U16_MAX)),
    "write-set-count": (41, "<H", 1, (0, 2, 3, _U16_MAX)),
    "empty-write-set-count": (82, "<H", 0, (1, 2, _U16_MAX)),
    "empty-dependency-count": (56, "<I", 0, (1, 2, 1 << 30, _U32_MAX)),
    "dependency-count": (84, "<I", 1, (0, 2, 3, 1 << 30, _U32_MAX)),
    "dependency": (88, "<I", 0, (1, 2, _U32_MAX)),
    "trailer-entry": (96, "<I", 1, (2, 3, _U32_MAX)),
}


@pytest.mark.parametrize("field", sorted(_COUNT_FIELDS))
def test_restamped_block_with_a_lying_count_is_a_codec_error(field):
    block = block_from_ops(_COUNT_BLOCK_OPS)
    data = serialize_block(block, build_dag(block))
    assert len(data) == 104
    offset, fmt, truth, lies = _COUNT_FIELDS[field]
    assert struct.unpack_from(fmt, data, offset)[0] == truth
    for lie in lies:
        tampered = bytearray(data)
        struct.pack_into(fmt, tampered, offset, lie)
        # a BlockCodecError subclass; never struct.error, IndexError,
        # MemoryError or UnicodeDecodeError from a count read off the wire
        with pytest.raises(BlockCodecError):
            parse_block(_restamp(tampered))


def test_restamped_mutations_parse_or_raise_codec_errors():
    rng = random.Random(13)
    parsed_count = 0
    for trial in range(300):
        block = _random_shared_block(rng) if trial % 2 else random_family_block(rng)
        body = bytearray(serialize_block(block)[:-4])
        for _ in range(rng.randrange(1, 4)):
            pos = rng.randrange(10, len(body))
            if rng.randrange(2):
                body[pos] = rng.choice((0x00, 0x01, 0x7F, 0x80, 0xC3, 0xFF))
            else:
                body[pos : pos + 4] = b"\xff\xff\xff\xff"
        data = _restamp(body + b"\x00" * 4)
        try:
            parsed = parse_block(data)
        except BlockCodecError:
            continue  # any other exception class fails the test
        # a mutation that parses is a block in its one canonical encoding
        assert serialize_block(parsed) == data, trial
        parsed_count += 1
    assert parsed_count > 0


@pytest.mark.parametrize(
    "lie",
    [b"wallet/b\x08\x00wallet/a", b"wallet/a\x08\x00wallet/a"],
    ids=["out-of-order", "repeat"],
)
def test_restamped_address_set_in_no_canonical_order_is_malformed(lie):
    # a CRC-valid read set written as (b, a) or (a, a) would parse into a
    # block that re-serializes to other bytes
    block = block_from_ops([wallet_transfer("a", "b", 1)])
    data = serialize_block(block)
    truth = b"wallet/a\x08\x00wallet/b"
    assert data.count(truth) == 2  # the read set, then the write set
    with pytest.raises(MalformedBlockError, match="not strictly ascending"):
        parse_block(_restamp(data.replace(truth, lie, 1)))


# -- the opcode table on the wire ---------------------------------------------


def _unchecked_wire(block: Block) -> bytes:
    """v1 bytes for any block, written field by field from docs/wire-format.md
    with none of serialize_block's checks: each argument is tagged by its
    Python type and each set is written ascending as given, so the body may
    lie about its ops."""
    has_dag = block.has_shared_dag
    out = bytearray(struct.pack("<BBII", 1, int(has_dag), 0, block.txn_count))
    for txn in block.transactions:
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
            deps = txn.declared_dependencies
            out += struct.pack(f"<I{len(deps)}I", len(deps), *deps)
    if has_dag:
        out += struct.pack(f"<{block.txn_count}I", *block.shared_indegree)
    return _restamp(out + bytes(4))


def _lying(block: Block, index: int, reads, writes) -> Block:
    txns = list(block.transactions)
    txns[index] = replace(txns[index], read_set=frozenset(reads), write_set=frozenset(writes))
    return Block(tuple(txns))


def test_every_tagged_opcode_has_one_schema_entry():
    tagged = [(family, opcode) for family, table in codec._OPCODE_TAGS.items() for opcode in table]
    assert len(tagged) == len(set(tagged)) == len(OP_SCHEMAS)
    assert set(tagged) == set(OP_SCHEMAS)
    for schema in OP_SCHEMAS.values():
        assert schema.args and set(schema.args) <= {STR, U64, PAIRS}


_IDS = ("a", "b", "", "ключ", "ä/b", "x" * 40)


def _random_op(rng: random.Random) -> FamilyOp:
    ident, other = rng.choice(_IDS), rng.choice(_IDS)
    amount = rng.choice((0, 1, 77, U64_MAX))
    fields = {rng.choice(_IDS): rng.choice(_IDS) for _ in range(rng.randrange(3))}
    return rng.choice(
        [
            wallet_create(ident),
            wallet_deposit(ident, amount),
            wallet_withdraw(ident, amount),
            wallet_transfer(ident, other, amount),
            intkey_set(ident, amount),
            intkey_inc(ident, amount),
            intkey_dec(ident, amount),
            voting_create_party(ident),
            voting_add_voter(ident),
            voting_vote(ident, other),
            insurance_create(ident, fields),
            insurance_update(ident, fields),
            insurance_read(ident),
        ]
    )


def test_parse_derives_the_sets_declared_sets_gives():
    rng = random.Random(17)
    ops = [
        wallet_transfer("a", "a", 3),  # a self-transfer names one address
        wallet_deposit("", U64_MAX),
        intkey_set("ключ", U64_MAX),
        insurance_create("", {"": ""}),
    ]
    ops += [_random_op(rng) for _ in range(400)]
    block = block_from_ops(ops)
    data = serialize_block(block, build_dag(block))
    assert data == _unchecked_wire(attach_dag(block, build_dag(block)))
    parsed = parse_block(data)
    for op, txn in zip(ops, parsed.transactions):
        assert txn.payload == op
        assert (txn.read_set, txn.write_set) == declared_sets(op)
    assert parsed.transactions[0].read_set == {b"wallet/a"}
    assert serialize_block(parsed) == data


def test_transfer_whose_sets_name_only_its_source_is_malformed():
    # with the source-only sets, the deposit on b would get no edge to the
    # transfer, and validate_dag would call the DAG built from them honest
    ops = [wallet_deposit("a", 5), wallet_transfer("a", "b", 1), wallet_deposit("b", 2)]
    lying = _lying(block_from_ops(ops), 1, {b"wallet/a"}, {b"wallet/a"})
    shared = attach_dag(lying, build_dag(lying))
    assert shared.transactions[2].declared_dependencies == ()
    with pytest.raises(ValueError, match="sets are not the ones its wallet/transfer op declares"):
        serialize_block(shared)
    with pytest.raises(MalformedBlockError, match="not the one its wallet/transfer op declares"):
        parse_block(_unchecked_wire(shared))


def test_string_amount_is_rejected_both_ways():
    op = FamilyOp("wallet", "deposit", ("a", "5"))
    block = Block((Transaction(0, *declared_sets(op), op),))
    with pytest.raises(ValueError, match=r"wallet/deposit takes \(str, u64\)"):
        serialize_block(block)
    with pytest.raises(MalformedBlockError, match="argument 1 is str, expected u64"):
        parse_block(_unchecked_wire(block))


@pytest.mark.parametrize(
    "args",
    [
        ("a", True),
        ("a", -1),
        ("a", U64_MAX + 1),
        ("a", 5.0),
        ("a",),
        ("a", 5, 6),
        (b"a", 5),
        (5, "a"),
    ],
)
def test_serializer_applies_the_argument_schema(args):
    op = FamilyOp("wallet", "deposit", args)
    sets = (frozenset({b"wallet/a"}),) * 2
    with pytest.raises(ValueError, match="wallet/deposit takes"):
        serialize_block(Block((Transaction(0, *sets, op),)))


@pytest.mark.parametrize(
    "pairs",
    [[("f", "v")], (("f",),), (("f", "v", "w"),), (("f", 1),), (["f", "v"],), "fv"],
)
def test_serializer_applies_the_field_pairs_schema(pairs):
    op = FamilyOp("insurance", "create_record", ("r", pairs))
    sets = (frozenset({b"insurance/r"}),) * 2
    with pytest.raises(ValueError, match="insurance/create_record takes"):
        serialize_block(Block((Transaction(0, *sets, op),)))


def test_parse_checks_argument_count_and_tags():
    block = block_from_ops([wallet_deposit("a", 5)])
    data = serialize_block(block)
    argc = 12  # header, then family and opcode tags
    assert data[argc] == 2
    for lie in (1, 3):
        tampered = bytearray(data)
        tampered[argc] = lie
        with pytest.raises(MalformedBlockError, match=f"wallet/deposit has {lie} arguments, expected 2"):
            parse_block(_restamp(tampered))
    wrong_kind = FamilyOp("wallet", "deposit", (("f", "v"), 5))
    with pytest.raises(MalformedBlockError, match="argument 0 is pairs, expected str"):
        parse_block(_unchecked_wire(Block((Transaction(0, frozenset(), frozenset(), wrong_kind),))))


def test_unencodable_derived_address_is_malformed_not_a_crash():
    # a string argument near the u16 limit gives an address too long for
    # any set section; the wire cannot carry it, whatever it writes
    op = wallet_create("x" * 0xFFFF)
    with pytest.raises(ValueError, match="too long"):
        serialize_block(block_from_ops([op]))
    with pytest.raises(MalformedBlockError, match="not the one its wallet/create op declares"):
        parse_block(_unchecked_wire(Block((Transaction(0, frozenset(), frozenset(), op),))))


def test_string_argument_too_long_for_its_prefix_is_rejected_on_serialize():
    with pytest.raises(ValueError, match="^field too long for u16 length prefix$"):
        serialize_block(block_from_ops([wallet_create("x" * 0x10000)]))


def test_set_section_differing_from_the_op_names_the_set():
    block = block_from_ops([insurance_read("r")])
    cases = [
        (set(), set(), "read set is not the one"),
        ({b"insurance/r"}, {b"insurance/r"}, "write set is not the one"),
        ({b"insurance/r", b"insurance/s"}, set(), "read set is not the one"),
    ]
    for reads, writes, message in cases:
        with pytest.raises(MalformedBlockError, match=f"transaction 0 {message} its insurance/read_record op"):
            parse_block(_unchecked_wire(_lying(block, 0, reads, writes)))


@pytest.mark.parametrize(
    "ops, reads, writes, message",
    [
        (
            [wallet_deposit("a", 1), wallet_deposit("a", 2)],
            {b"wallet/a"},
            {b"wallet/b"},
            "write set is not the one its wallet/deposit op",
        ),
        (
            [voting_add_voter("v"), voting_vote("v", "p")],
            {b"voting/parties"},
            {b"voting/parties", b"voting/voters"},
            "read set is not the one its voting/vote op",
        ),
    ],
    ids=["equal-sets", "shared-sets"],
)
def test_a_lying_section_after_one_with_the_same_sets_is_malformed(ops, reads, writes, message):
    # both transactions derive equal sets, so the second reuses the first's
    # canonical section; its own section is still compared
    block = block_from_ops(ops)
    assert block.transactions[0].read_set == block.transactions[1].read_set
    assert parse_block(_unchecked_wire(block)) == block
    with pytest.raises(MalformedBlockError, match=f"^transaction 1 {message}"):
        parse_block(_unchecked_wire(_lying(block, 1, reads, writes)))


def test_attach_dag_shares_the_inputs_objects_and_replaces_dependencies():
    block = block_from_ops([intkey_set("k", 1), intkey_set("k", 2), intkey_set("j", 3)])
    shared = attach_dag(block, build_dag(block))
    reattached = attach_dag(shared, DependencyDAG([(), (), (1, 0)]))
    assert [t.declared_dependencies for t in shared.transactions] == [(), (0,), ()]
    assert [t.declared_dependencies for t in reattached.transactions] == [(), (), (0, 1)]
    assert (shared.shared_indegree, reattached.shared_indegree) == ((0, 1, 0), (0, 0, 2))
    rows = zip(block.transactions, shared.transactions, reattached.transactions)
    for before, after, again in rows:
        assert before.index == after.index == again.index
        assert before.payload is after.payload is again.payload
        assert before.read_set is after.read_set is again.read_set
        assert before.write_set is after.write_set is again.write_set


_ARG_VALUES = ("", "a", "c1", "ключ", "5", 0, 5, 499, U64_MAX, (), (("f", "v"),), (("", "ä"),))


def _schema_holds(txn: Transaction) -> bool:
    """The oracle: the op is in the table, its arguments have the kinds the
    table gives, and the sets are the ones it declares."""
    op = txn.payload
    schema = OP_SCHEMAS.get((op.family, op.opcode))
    if schema is None or len(schema.args) != len(op.args):
        return False
    for kind, arg in zip(schema.args, op.args):
        if kind == STR and not isinstance(arg, str):
            return False
        if kind == U64 and not isinstance(arg, int):
            return False
        if kind == PAIRS and not isinstance(arg, tuple):
            return False
    return (txn.read_set, txn.write_set) == declared_sets(op)


def _mutate(txn: Transaction, block: Block, rng: random.Random) -> Transaction:
    op = txn.payload
    what = rng.randrange(3)
    if what == 0:  # an argument replaced, dropped, added or moved
        args = list(op.args)
        k = rng.randrange(len(args)) if args else 0
        how = rng.randrange(4) if args else 2
        if how == 0:
            same_kind = [v for v in _ARG_VALUES if type(v) is type(args[k])]
            args[k] = rng.choice(same_kind if rng.randrange(2) else _ARG_VALUES)
        elif how == 1:
            del args[k]
        elif how == 2:
            args.insert(k, rng.choice(_ARG_VALUES))
        else:
            rng.shuffle(args)
        op = FamilyOp(op.family, op.opcode, tuple(args))
    elif what == 1:  # another opcode, of this family or another one
        family = op.family if rng.randrange(2) else rng.choice(sorted(codec._OPCODE_TAGS))
        op = FamilyOp(family, rng.choice(sorted(codec._OPCODE_TAGS[family])), op.args)
    else:  # the address sets
        pool = sorted({a for t in block.transactions for a in t.read_set | t.write_set})
        pool.append(b"wallet/elsewhere")
        reads, writes = set(txn.read_set), set(txn.write_set)
        how = rng.randrange(4)
        if how == 0 and reads:
            reads.discard(rng.choice(sorted(reads)))
        elif how == 1:
            writes.add(rng.choice(pool))
        elif how == 2:
            reads, writes = writes, reads
        else:
            writes = set()
        return replace(txn, read_set=frozenset(reads), write_set=frozenset(writes))
    txn = replace(txn, payload=op)
    if rng.randrange(2):
        # the sets follow the new op where it has any, so more blocks parse
        try:
            reads, writes = declared_sets(op)
            txn = replace(txn, read_set=reads, write_set=writes)
        except (ValueError, IndexError, AttributeError, TypeError):
            pass
    return txn


def _serial_dag_and_tree_digests(shared: Block) -> list[bytes]:
    stores = [StateStore() for _ in range(3)]
    execute_block_serial(shared, stores[0])
    execute_block_parallel(shared, dag_from_shared(shared), stores[1], 2)
    execute_block_tree(shared, build_predecessor_tree(shared), stores[2], 2)
    return [state_digest(store) for store in stores]


def test_semantic_mutations_are_rejected_or_execute_to_the_serial_digest():
    # args, opcodes and address sets mutated, then written with a valid CRC
    # and a DAG built from the written sets: a block either fails to parse or
    # runs under every strategy to the serial digest without crashing a worker
    rng = random.Random(29)
    parsed_count = rejected = 0
    for trial in range(500):
        block = random_family_block(rng, n=rng.randrange(2, 20))
        txns = list(block.transactions)
        for _ in range(rng.randrange(1, 3)):
            j = rng.randrange(len(txns))
            txns[j] = _mutate(txns[j], block, rng)
        mutated = Block(tuple(txns))
        shared = attach_dag(mutated, build_dag(mutated))
        data = _unchecked_wire(shared)
        expected_to_parse = all(_schema_holds(txn) for txn in txns)
        try:
            parsed = parse_block(data)
        except BlockCodecError:
            assert not expected_to_parse, trial
            rejected += 1
            continue
        assert expected_to_parse, trial
        assert parsed == shared
        assert serialize_block(parsed) == data
        assert validate_dag(parsed) is Verdict.HONEST
        serial, dag, tree = _serial_dag_and_tree_digests(parsed)
        assert dag == serial and tree == serial, trial
        parsed_count += parsed.transactions != block.transactions
    assert parsed_count > 20 and rejected > 20, (parsed_count, rejected)
