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
from blockdag.dag import build_dag
from blockdag.families import (
    block_from_ops,
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
from blockdag.model import Block
from blockdag.workload import WorkloadSpec, generate_block

from _helpers import random_family_block, structural_block


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
    for variant in ("matrix", "linked-list"):
        data = serialize_block(block, build_dag(block, variant=variant))
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
    block = structural_block([({b"wallet/a", b"wallet/b"}, set())])
    data = serialize_block(block)
    truth = b"wallet/a\x08\x00wallet/b"
    assert data.count(truth) == 1
    with pytest.raises(MalformedBlockError, match="not strictly ascending"):
        parse_block(_restamp(data.replace(truth, lie)))
