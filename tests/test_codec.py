import hashlib
import random
import re
import struct
import zlib
from dataclasses import FrozenInstanceError, replace

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
    _set_args,
    _set_family,
    _set_opcode,
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

from _helpers import ALL_FAMILIES, random_family_block, restamp, unchecked_wire


def _random_shared_block(rng):
    block = random_family_block(rng)
    return attach_dag(block, build_dag(block, workers=2))


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


def test_a_bytearray_parses_like_its_bytes():
    block = _random_shared_block(random.Random(4))
    data = serialize_block(block)
    assert parse_block(bytearray(data)) == parse_block(data) == block


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
    # no Transaction may hold this list, so only hand-written bytes carry it
    with pytest.raises(MalformedBlockError, match="^transaction 1 declares dependency 1 not below it$"):
        parse_block(unchecked_wire(block, [(), (1,)]))


@pytest.mark.parametrize(
    "deps, bad",
    [
        ((5, 0, 1), 5),
        ((0, 5, 1), 5),
        ((2, 0, 5), 5),
        ((1, 3, 0), 3),
        ((4, 0, 5), 4),
    ],
    ids=["first", "middle", "last", "self-in-the-middle", "first-of-two"],
)
def test_a_forward_dependency_anywhere_in_a_list_is_malformed(deps, bad):
    # the lists are not ascending, so neither their first nor their last
    # entry stands for the largest, and the error names the first bad one
    block = block_from_ops([intkey_set(f"k{i}", i) for i in range(6)])
    with pytest.raises(
        MalformedBlockError, match=f"^transaction 3 declares dependency {bad} not below it$"
    ):
        parse_block(unchecked_wire(block, [(), (), (), deps, (), ()]))


def test_lists_longer_than_1024_round_trip():
    # a voting block is one chain, so its last lists hold more than 1 024
    # dependencies, most of them above 256
    block = generate_block(WorkloadSpec(family="voting", txns_per_block=1100, rng_seed=1))
    dag = build_dag(block)
    assert max(map(len, dag.preds)) > 1024
    data = serialize_block(block, dag)
    parsed = parse_block(data)
    assert parsed == attach_dag(block, dag)
    assert serialize_block(parsed) == data


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
    with pytest.raises(ValueError, match="^DAG does not match block$"):
        attach_dag(block, dag)
    with pytest.raises(ValueError, match="^DAG does not match block$"):
        serialize_block(block, dag)


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
        parse_block(restamp(data.replace(raw, bad)))


def _cut(data: bytes, at: int) -> bytes:
    """The first ``at`` bytes as a whole message: the body ends at ``at``."""
    return restamp(data[:at] + bytes(4))


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
            restamp(two[:at] + b"\xc3\x28" + two[at + 2 :]),
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


# Each fixed-width field the parser reads, with a CRC-valid body that ends
# inside it (offsets from docs/wire-format.md: a 10-byte header, then each
# record's family tag, opcode tag and argc).
_FIELD_CUTS = {
    # one byte of the first record's family and opcode tags
    "record-head": ([wallet_deposit("a", 5)], False, 11, "needed 2 bytes at offset 10, have 1"),
    "argc": ([wallet_deposit("a", 5)], False, 12, "needed 1 bytes at offset 12, have 0"),
    "argument-tag": ([wallet_deposit("a", 5)], False, 13, "needed 1 bytes at offset 13, have 0"),
    # the amount starts at 18, after the tagged string "a"
    "u64-argument": ([wallet_deposit("a", 5)], False, 20, "needed 8 bytes at offset 18, have 2"),
    "pair-count": ([insurance_create("r", {"f": "v"})], False, 19, "needed 2 bytes at offset 18, have 1"),
    "pair-key-length": ([insurance_create("r", {"f": "v"})], False, 21, "needed 2 bytes at offset 20, have 1"),
    # the set section no longer matches, and naming why reads its count
    "set-count": ([wallet_create("a")], False, 18, "needed 2 bytes at offset 17, have 1"),
    # wallet_create("a") with its DAG: the dependency count follows the sets at 41
    "dependency-count": ([wallet_create("a")], True, 43, "needed 4 bytes at offset 41, have 2"),
}


@pytest.mark.parametrize("case", sorted(_FIELD_CUTS))
def test_a_body_cut_inside_a_field_names_the_bytes_it_needed(case):
    ops, shared, at, message = _FIELD_CUTS[case]
    block = block_from_ops(ops)
    data = serialize_block(block, build_dag(block) if shared else None)
    with pytest.raises(TruncatedBlockError) as caught:
        parse_block(_cut(data, at))
    assert type(caught.value) is TruncatedBlockError
    assert str(caught.value) == message


def test_unknown_flag_bit_is_malformed():
    data = bytearray(serialize_block(block_from_ops([wallet_create("a")])))
    data[1] = 0x02
    with pytest.raises(MalformedBlockError, match="^unknown flag bits 0x02$"):
        parse_block(restamp(data))


def test_serializer_refuses_more_field_pairs_than_a_u16_count():
    # FamilyOp takes any number of pairs; the wire's u16 count is the limit
    op = insurance_create("r", {f"k{i}": "" for i in range(0x10000)})
    with pytest.raises(ValueError, match="^too many field pairs for a u16 count$"):
        serialize_block(block_from_ops([op]))


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
            parse_block(restamp(tampered))


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
        data = restamp(body + b"\x00" * 4)
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
        parse_block(restamp(data.replace(truth, lie, 1)))


# -- the opcode table on the wire ---------------------------------------------


def _raw_op(family: str, opcode: str, args: tuple) -> FamilyOp:
    """An op built slot by slot, as the parser builds one, with none of
    FamilyOp's checks: only a test makes an op the opcode table refuses."""
    op = object.__new__(FamilyOp)
    _set_family(op, family)
    _set_opcode(op, opcode)
    _set_args(op, args)
    return op


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
    assert data == unchecked_wire(attach_dag(block, build_dag(block)))
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
        parse_block(unchecked_wire(shared))


def test_string_amount_is_rejected_both_ways():
    # FamilyOp refuses it where it is made; only hostile bytes carry one
    with pytest.raises(ValueError, match=r"^wallet/deposit takes \(str, u64\), got \('a', '5'\)$"):
        FamilyOp("wallet", "deposit", ("a", "5"))
    op = _raw_op("wallet", "deposit", ("a", "5"))
    block = Block((Transaction(0, *declared_sets(op), op),))
    with pytest.raises(MalformedBlockError, match="argument 1 is str, expected u64"):
        parse_block(unchecked_wire(block))


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
    # the schema is applied once, where the op is made, so no op with
    # arguments of the wrong kind reaches the serializer
    message = re.escape(f"wallet/deposit takes (str, u64), got {args!r}")
    with pytest.raises(ValueError, match=f"^{message}$"):
        FamilyOp("wallet", "deposit", args)


@pytest.mark.parametrize(
    "pairs",
    [[("f", "v")], (("f",),), (("f", "v", "w"),), (("f", 1),), (["f", "v"],), "fv"],
)
def test_serializer_applies_the_field_pairs_schema(pairs):
    # as above: FamilyOp applies the schema, the serializer never sees it fail
    message = re.escape(f"insurance/create_record takes (str, pairs), got {('r', pairs)!r}")
    with pytest.raises(ValueError, match=f"^{message}$"):
        FamilyOp("insurance", "create_record", ("r", pairs))


def _two_deposits(deps, indegree):
    block = block_from_ops([wallet_deposit("a", 1), wallet_deposit("b", 2)])
    return Block(
        tuple(replace(t, declared_dependencies=d) for t, d in zip(block.transactions, deps)),
        shared_indegree=indegree,
    )


@pytest.mark.parametrize(
    "deps, indegree, message",
    [
        (((), (-1,)), (0, 1), "^transaction 1 declares invalid dependency -1$"),
        (((), (2**32,)), (0, 1), "^transaction 1 declares invalid dependency 4294967296$"),
        (((), (0.5,)), (0, 1), "^transaction 1 declares invalid dependency 0.5$"),
        (((), ()), (0, -1), "^indegree -1 for transaction 1 out of range$"),
    ],
    ids=["negative", "above-u32", "float", "negative-indegree"],
)
def test_serializer_refuses_a_dependency_or_indegree_outside_u32(deps, indegree, message):
    # no transaction holds such a dependency and no block such an indegree,
    # so the block cannot be built for the serializer to see
    with pytest.raises(ValueError, match=message):
        _two_deposits(deps, indegree)


@pytest.mark.parametrize(
    "deps, indegree, message",
    [
        (((), (1,)), (0, 1), "^transaction 1 declares invalid dependency 1$"),
        (((0,), ()), (1, 0), "^transaction 0 declares invalid dependency 0$"),
        (((), (0, 7)), (0, 2), "^transaction 1 declares invalid dependency 7$"),
        (((), ()), (0, 2), "^indegree 2 for transaction 1 out of range$"),
    ],
    ids=["self", "first-on-itself", "ahead", "indegree"],
)
def test_serializer_refuses_a_dependency_not_below_its_transaction(deps, indegree, message):
    # parse_block rejects such a list or indegree, so the serializer must
    # not write one. The transaction refuses the list and the block the
    # indegree where each is made, so neither reaches the serializer; an
    # indegree that is in range but wrong still serializes
    with pytest.raises(ValueError, match=message):
        _two_deposits(deps, indegree)


def test_serializer_writes_a_wrong_indegree_that_is_in_range():
    # the validator, not the codec, judges an indegree that is in range
    data = serialize_block(_two_deposits(((), ()), (0, 1)))
    assert parse_block(data).shared_indegree == (0, 1)


def test_serializer_refuses_a_partial_shared_dag():
    # Block itself refuses it, so no partial shared DAG reaches the serializer
    with pytest.raises(ValueError, match="^block carries an indegree but transaction 1 has no"):
        _two_deposits(((), None), (0, 0))


def test_parse_checks_argument_count_and_tags():
    block = block_from_ops([wallet_deposit("a", 5)])
    data = serialize_block(block)
    argc = 12  # header, then family and opcode tags
    assert data[argc] == 2
    for lie in (1, 3):
        tampered = bytearray(data)
        tampered[argc] = lie
        with pytest.raises(MalformedBlockError, match=f"wallet/deposit has {lie} arguments, expected 2"):
            parse_block(restamp(tampered))
    wrong_kind = _raw_op("wallet", "deposit", (("f", "v"), 5))
    with pytest.raises(MalformedBlockError, match="argument 0 is pairs, expected str"):
        parse_block(unchecked_wire(Block((Transaction(0, frozenset(), frozenset(), wrong_kind),))))


_ONE_OF_EACH_OP = [
    wallet_create("a"),
    wallet_deposit("a", 1),
    wallet_withdraw("a", 1),
    wallet_transfer("a", "b", 1),
    intkey_set("k", 1),
    intkey_inc("k", 1),
    intkey_dec("k", 1),
    voting_create_party("p"),
    voting_add_voter("v"),
    voting_vote("v", "p"),
    insurance_create("r", {"f": "v"}),
    insurance_update("r", {"f": "v"}),
    insurance_read("r"),
]


def _second_record_head(op) -> tuple[bytearray, int]:
    """The bytes of ``[wallet_create("a"), op]`` and where op's record starts."""
    first = serialize_block(block_from_ops([wallet_create("a")]))
    return bytearray(serialize_block(block_from_ops([wallet_create("a"), op]))), len(first) - 4


def _head_cut_after(name: str, head: bytes) -> tuple[bytes, int]:
    """A body that declares two records and ends ``head`` bytes into the
    second, which follows ``wallet_create(name)``; and where that head starts."""
    body = bytearray(serialize_block(block_from_ops([wallet_create(name)]))[:-4])
    struct.pack_into("<I", body, 6, 2)
    return restamp(body + head + bytes(4)), len(body)


def _bad_heads():
    """(case, [(bytes, error type, exact message), ...]) for each way a
    record head can fail, every case on the second record."""
    cases = {}
    data, at = _second_record_head(wallet_deposit("a", 1))
    rows = []
    for tag in range(len(codec._FAMILY_TAGS), 256):
        data[at] = tag
        rows.append((restamp(data), MalformedBlockError, f"unknown family tag {tag}"))
    cases["unknown-family-tag"] = rows
    for family, table in codec._OPCODE_TAGS.items():
        op = next(op for op in _ONE_OF_EACH_OP if op.family == family)
        data, at = _second_record_head(op)
        rows = []
        for tag in range(len(table), 256):
            data[at + 1] = tag
            rows.append((restamp(data), MalformedBlockError, f"unknown {family} opcode tag {tag}"))
        cases[f"unknown-{family}-opcode-tag"] = rows
    for name, step in (("low", -1), ("high", 1)):
        rows = []
        for op in _ONE_OF_EACH_OP:
            data, at = _second_record_head(op)
            want = len(op.args)
            data[at + 2] = want + step
            message = (
                f"transaction 1 {op.family}/{op.opcode} has {want + step} arguments, "
                f"expected {want}"
            )
            rows.append((restamp(data), MalformedBlockError, message))
        cases[f"argc-one-{name}"] = rows
    # cut after 1 and after 2 bytes of a wallet/deposit head; the names
    # "a7383" and "a76" make the checksum's first bytes complete a valid
    # wallet head ((0, 0, 1), then (0, 1, 2)), so a lookup that read past
    # the body would find an op instead of reporting the cut
    cuts = [("a", b"\x00"), ("a7383", b"\x00"), ("a", b"\x00\x01"), ("a76", b"\x00\x01")]
    for name, head in cuts:
        data, at = _head_cut_after(name, head)
        # the family and opcode tags are read as two bytes, then argc as one
        message = (
            f"needed 2 bytes at offset {at}, have 1"
            if len(head) == 1
            else f"needed 1 bytes at offset {at + 2}, have 0"
        )
        rows = cases.setdefault(f"head-cut-after-{len(head)}", [])
        rows.append((data, TruncatedBlockError, message))
    return cases


_BAD_HEADS = _bad_heads()


def test_a_checksum_can_complete_a_cut_head():
    # the premise of the cut cases above: past the body, the bytes read as a head
    completed = [("a7383", b"\x00", b"\x00\x00\x01"), ("a76", b"\x00\x01", b"\x00\x01\x02")]
    for name, head, full in completed:
        data, at = _head_cut_after(name, head)
        assert data[at : at + 3] == full
        assert any(op.head == full for op in codec._WIRE_OPS.values())


@pytest.mark.parametrize("case", sorted(_BAD_HEADS))
def test_a_bad_record_head_keeps_its_error_and_message(case):
    for data, error, message in _BAD_HEADS[case]:
        with pytest.raises(BlockCodecError) as caught:
            parse_block(data)
        assert type(caught.value) is error
        assert str(caught.value) == message


def test_unencodable_derived_address_is_malformed_not_a_crash():
    # a string argument near the u16 limit gives an address too long for
    # any set section; the wire cannot carry it, whatever it writes
    op = wallet_create("x" * 0xFFFF)
    with pytest.raises(ValueError, match="too long"):
        serialize_block(block_from_ops([op]))
    with pytest.raises(MalformedBlockError, match="not the one its wallet/create op declares"):
        parse_block(unchecked_wire(Block((Transaction(0, frozenset(), frozenset(), op),))))


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
            parse_block(unchecked_wire(_lying(block, 0, reads, writes)))


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
    assert parse_block(unchecked_wire(block)) == block
    with pytest.raises(MalformedBlockError, match=f"^transaction 1 {message}"):
        parse_block(unchecked_wire(_lying(block, 1, reads, writes)))


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
        op = _raw_op(op.family, op.opcode, tuple(args))
    elif what == 1:  # another opcode, of this family or another one
        family = op.family if rng.randrange(2) else rng.choice(sorted(codec._OPCODE_TAGS))
        op = _raw_op(family, rng.choice(sorted(codec._OPCODE_TAGS[family])), op.args)
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
        data = unchecked_wire(shared)
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


def _family_blocks():
    for family in ALL_FAMILIES:
        spec = WorkloadSpec(family=family, txns_per_block=60, dependency_pct=40, rng_seed=9)
        yield family, generate_block(spec)


def test_blocks_made_from_ops_or_bytes_are_checked_and_copies_are_not():
    block = block_from_ops([wallet_deposit("a", 1), wallet_transfer("a", "b", 2)])
    shared = attach_dag(block, build_dag(block))
    parsed = parse_block(serialize_block(shared))
    assert block._is_checked and shared._is_checked and parsed._is_checked
    copies = [
        Block(block.transactions),
        replace(block),
        replace(shared, shared_indegree=shared.shared_indegree),
        attach_dag(Block(block.transactions), build_dag(block)),
    ]
    assert not any(copy._is_checked for copy in copies)
    # the mark is no field: equality, hashing and repr ignore it
    for checked, copy in ((block, copies[0]), (shared, copies[2]), (parsed, copies[2])):
        assert checked == copy and hash(checked) == hash(copy) and repr(checked) == repr(copy)


def _swapped_payload(block: Block, index: int, op: FamilyOp) -> Block:
    txns = list(block.transactions)
    txns[index] = replace(txns[index], payload=op)
    return replace(block, transactions=tuple(txns))


@pytest.mark.parametrize("shared", [False, True], ids=["plain", "shared"])
def test_a_copy_of_a_checked_block_is_checked_again(shared):
    ops = [wallet_deposit("a", 5), wallet_transfer("a", "b", 1), wallet_deposit("b", 2)]
    block = block_from_ops(ops)
    lies = [
        (_lying(block, 1, {b"wallet/a"}, {b"wallet/a"}), "1 sets are not the ones its wallet/transfer"),
        (_swapped_payload(block, 2, wallet_deposit("c", 2)), "2 sets are not the ones its wallet/deposit"),
        (_swapped_payload(block, 0, wallet_withdraw("a", 5)), None),  # the same sets: no lie
    ]
    if shared:
        # an unchecked block stays unchecked when a DAG is attached to it
        lies = [(attach_dag(lie, build_dag(block)), message) for lie, message in lies]
        # a dependency lie cannot be built: the transaction refuses it
        txn = attach_dag(block, build_dag(block)).transactions[2]
        with pytest.raises(ValueError, match="^transaction 2 declares invalid dependency 2$"):
            replace(txn, declared_dependencies=(2,))
    for lie, message in lies:
        assert not lie._is_checked
        if message is None:
            assert parse_block(serialize_block(lie)) == lie
            continue
        with pytest.raises(ValueError, match=f"^transaction {message}"):
            serialize_block(lie)
        if "sets" in message:
            with pytest.raises(ValueError, match=f"^transaction {message}"):
                serialize_block(lie, build_dag(block))


def test_checked_and_unchecked_copies_serialize_to_the_same_bytes():
    for family, block in _family_blocks():
        dag = build_dag(block)
        copy = Block(block.transactions)
        plain = serialize_block(block)
        assert serialize_block(copy) == plain, family
        with_dag = serialize_block(block, dag)
        for form in (
            serialize_block(copy, dag),
            serialize_block(attach_dag(block, dag)),
            serialize_block(attach_dag(copy, dag)),
        ):
            assert form == with_dag, family


def test_serializing_with_a_dag_equals_serializing_the_attached_block():
    rng = random.Random(29)
    for family, block in _family_blocks():
        n = block.txn_count
        other = DependencyDAG([rng.sample(range(j), min(j, 2)) for j in range(n)])
        for dag in (build_dag(block), other):
            attached = attach_dag(block, dag)
            assert serialize_block(block, dag) == serialize_block(attached), family
            # a DAG given replaces the one the block carries
            assert serialize_block(attached, dag) == serialize_block(attached), family
            assert serialize_block(attach_dag(block, other), dag) == serialize_block(attached)


def test_parsed_blocks_serialize_to_their_bytes():
    for family, block in _family_blocks():
        for data in (serialize_block(block), serialize_block(block, build_dag(block))):
            parsed = parse_block(data)
            assert parsed._is_checked
            assert serialize_block(parsed) == data, family
            assert serialize_block(Block(parsed.transactions, parsed.shared_indegree)) == data


def test_serializer_derives_sets_only_for_an_unchecked_block(monkeypatch):
    calls = []

    def counted(op):
        def sets(args):
            calls.append(op.opcode)
            return op.sets(args)

        return op._replace(sets=sets)

    monkeypatch.setattr(codec, "_WIRE_OPS", {key: counted(op) for key, op in codec._WIRE_OPS.items()})
    for family, block in _family_blocks():
        dag = build_dag(block)
        for checked in (block, attach_dag(block, dag), parse_block(serialize_block(block, dag))):
            serialize_block(checked)
            serialize_block(checked, dag)
        assert calls == [], family
        serialize_block(Block(block.transactions), dag)
        assert len(calls) == block.txn_count, family
        calls.clear()


def test_no_timed_path_runs_the_transaction_constructor(monkeypatch):
    # Transaction.__init__ range-checks dependencies; parse_block and
    # attach_dag build records slot by slot and block_from_ops passes no
    # dependencies, so the check costs the produce and validate paths nothing
    calls = []
    init = Transaction.__init__

    def counted(self, *args, **kwargs):
        calls.append((args, kwargs))
        init(self, *args, **kwargs)

    spec = WorkloadSpec(family="wallet", txns_per_block=300, dependency_pct=20, rng_seed=1)
    block = generate_block(spec)
    ops = [txn.payload for txn in block.transactions]
    monkeypatch.setattr(Transaction, "__init__", counted)
    dag = build_dag(block, workers=2)
    shared = attach_dag(block, dag)
    data = serialize_block(block, dag)
    parsed = parse_block(data)
    assert validate_dag(parsed) is Verdict.HONEST
    execute_block_parallel(parsed, dag_from_shared(parsed), StateStore(), 2)
    assert parsed == shared and serialize_block(shared) == data
    assert dag.edge_count and calls == []
    assert block_from_ops(ops) == block
    assert len(calls) == len(ops)
    assert all(len(args) == 4 and not kwargs for args, kwargs in calls)


def test_trusted_makers_skip_the_block_constructor(monkeypatch):
    # block_from_ops, parse_block and attach_dag of a checked block already
    # guarantee every check Block's constructor makes, so they skip it;
    # Block(...), replace and attach_dag of an unchecked block run it once
    calls = []
    post_init = Block.__post_init__

    def counted(self):
        calls.append(self.txn_count)
        post_init(self)

    monkeypatch.setattr(Block, "__post_init__", counted)
    for family, block in _family_blocks():
        dag = build_dag(block)
        trusted = [
            block_from_ops([txn.payload for txn in block.transactions]),
            parse_block(serialize_block(block)),
            attach_dag(block, dag),
            parse_block(serialize_block(block, dag)),
        ]
        assert calls == [], family
        for made in trusted:
            twin = Block(made.transactions, made.shared_indegree)
            assert made._is_checked and not twin._is_checked, family
            assert made == twin and hash(made) == hash(twin), family
        assert len(calls) == len(trusted), family
        unchecked = replace(block)
        assert len(calls) == len(trusted) + 1, family
        assert not attach_dag(unchecked, dag)._is_checked
        assert len(calls) == len(trusted) + 2, family
        calls.clear()


def test_layout_twins_hold_their_records_slots():
    # parse_block and attach_dag fill a twin and retype it; the retype is
    # allowed only between equal layouts, so a twin that drifts fails loudly
    assert codec._TxnFields.__slots__ == Transaction.__slots__
    assert codec._OpFields.__slots__ == FamilyOp.__slots__

    class Drifted:
        __slots__ = Transaction.__slots__[:-1]

    with pytest.raises(TypeError):
        Drifted().__class__ = Transaction


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_trusted_records_are_the_frozen_records_their_constructors_make(family):
    block = generate_block(
        WorkloadSpec(family=family, txns_per_block=60, dependency_pct=40, rng_seed=9)
    )
    dag = build_dag(block)
    made = {
        "parse plain": parse_block(serialize_block(block)),
        "parse shared": parse_block(serialize_block(block, dag)),
        "attach_dag": attach_dag(block, dag),
    }
    for maker, built in made.items():
        for txn in built.transactions:
            op = txn.payload
            assert type(txn) is Transaction and type(op) is FamilyOp, maker
            twin = Transaction(
                txn.index,
                txn.read_set,
                txn.write_set,
                FamilyOp(op.family, op.opcode, op.args),
                txn.declared_dependencies,
            )
            assert txn == twin and hash(txn) == hash(twin), maker
            assert op == twin.payload and hash(op) == hash(twin.payload), maker
            for record in (txn, op):
                for name in type(record).__slots__:
                    with pytest.raises(FrozenInstanceError):
                        setattr(record, name, getattr(record, name))
    # replace runs the constructor, and with it the dependency check
    parsed = [txn for txn in made["parse shared"].transactions if txn.declared_dependencies][-1]
    with pytest.raises(ValueError, match="declares invalid dependency"):
        replace(parsed, index=0)
