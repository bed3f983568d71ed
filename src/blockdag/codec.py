"""Binary wire format for blocks, with or without an embedded shared DAG.

The shared DAG travels inside each transaction's dependency list (its
incoming edges), with the indegree array in a block trailer; the consuming
side keeps those lists as the DAG's predecessor tuples, which its executor
reads, so no successor lists are rebuilt. All integers are little-endian and
fixed-width, variable fields are length-prefixed, and the whole message
ends in a CRC-32 so a corrupted block is always a parse error, never a
silently different block. Full byte layout: docs/wire-format.md.

Both directions are one loop over a local offset with precompiled
``struct.Struct`` objects: a dependency list and the indegree trailer are
each packed or unpacked in a single call, and their range checks are one
``max()``. Every count read off the wire is checked against the bytes left
before it is used, and strings that are not UTF-8 are malformed, so a
CRC-valid body that lies raises a ``BlockCodecError`` subclass, never
``struct.error``, ``IndexError``, ``MemoryError`` or ``UnicodeDecodeError``.
An address set must be written strictly ascending, as the serializer writes
it, so every block that parses re-serializes to the bytes it came from.
"""

from __future__ import annotations

import functools
import struct
import zlib

from .dag import DependencyDAG
from .model import Block, Transaction
from .families import FamilyOp

WIRE_VERSION = 1
_FLAG_SHARED_DAG = 0x01
MAX_BLOCK_TXNS = 4096
_MIN_SIZE = 14  # version + flags + total_length + txn_count + checksum

_FAMILY_TAGS = {"wallet": 0, "intkey": 1, "voting": 2, "insurance": 3}
_FAMILY_NAMES = {tag: name for name, tag in _FAMILY_TAGS.items()}
_OPCODE_TAGS = {
    "wallet": {"create": 0, "deposit": 1, "withdraw": 2, "transfer": 3},
    "intkey": {"set": 0, "inc": 1, "dec": 2},
    "voting": {"create_party": 0, "add_voter": 1, "vote": 2},
    "insurance": {"create_record": 0, "update_record": 1, "read_record": 2},
}
_OPCODE_NAMES = {
    family: {tag: name for name, tag in table.items()}
    for family, table in _OPCODE_TAGS.items()
}

_ARG_INT = 0
_ARG_STR = 1
_ARG_PAIRS = 2

_HEADER = struct.Struct("<BBII")  # version, flags, total length, txn count
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_INT_ARG = struct.Struct("<BQ")  # tag, value
_PAIRS_HEAD = struct.Struct("<BH")  # tag, pair count


class BlockCodecError(Exception):
    """Base class for every block parse/serialize failure."""


class TruncatedBlockError(BlockCodecError):
    pass


class ChecksumMismatchError(BlockCodecError):
    pass


class MalformedBlockError(BlockCodecError):
    pass


class BlockTooLargeError(BlockCodecError):
    pass


@functools.lru_cache(maxsize=1024)
def _u32_array(count: int) -> struct.Struct:
    """Packs or unpacks ``count`` consecutive u32 values in one call."""
    return struct.Struct(f"<{count}I")


def _truncated(size: int, off: int, end: int) -> TruncatedBlockError:
    return TruncatedBlockError(f"needed {size} bytes at offset {off}, have {end - off}")


def _blob16(data: bytes) -> bytes:
    if len(data) > 0xFFFF:
        raise ValueError("field too long for u16 length prefix")
    return _U16.pack(len(data)) + data


def _read_blob16(data: bytes, off: int, end: int) -> tuple[bytes, int]:
    """The u16-length-prefixed field at ``off`` and the offset after it."""
    if off + 2 > end:
        raise _truncated(2, off, end)
    size = _U16.unpack_from(data, off)[0]
    off += 2
    if off + size > end:
        raise _truncated(size, off, end)
    return data[off : off + size], off + size


def _read_str16(data: bytes, off: int, end: int) -> tuple[str, int]:
    """The u16-length-prefixed UTF-8 string at ``off`` and the offset after it."""
    raw, after = _read_blob16(data, off, end)
    try:
        return raw.decode(), after
    except UnicodeDecodeError as exc:
        raise MalformedBlockError(
            f"string at offset {off + 2} is not UTF-8: {exc.reason}"
        ) from exc


def attach_dag(block: Block, dag: DependencyDAG) -> Block:
    """New block carrying the DAG: per-transaction predecessor lists plus
    the indegree trailer, both taken from the DAG's kept predecessor tuples."""
    if dag.txn_count != block.txn_count:
        raise ValueError("DAG does not match block")
    preds = dag.predecessor_lists()
    transactions = tuple(
        Transaction(
            index=txn.index,
            read_set=txn.read_set,
            write_set=txn.write_set,
            payload=txn.payload,
            declared_dependencies=preds[txn.index],
        )
        for txn in block.transactions
    )
    return Block(
        transactions=transactions,
        shared_indegree=tuple(map(len, preds)),
    )


def serialize_block(block: Block, dag: DependencyDAG | None = None) -> bytes:
    """Deterministic bytes for a block; same input always yields same output.

    When a DAG is given it is embedded (replacing whatever shared-DAG fields
    the block already has); otherwise the block's own fields are written
    as-is, shared section included only if present.
    """
    if block.txn_count > MAX_BLOCK_TXNS:
        raise BlockTooLargeError(f"block has {block.txn_count} txns, cap is {MAX_BLOCK_TXNS}")
    if dag is not None:
        block = attach_dag(block, dag)
    has_dag = block.has_shared_dag
    flags = _FLAG_SHARED_DAG if has_dag else 0
    # total length is patched in once the body is known
    out = bytearray(_HEADER.pack(WIRE_VERSION, flags, 0, block.txn_count))
    for txn in block.transactions:
        op: FamilyOp = txn.payload
        try:
            family_tag = _FAMILY_TAGS[op.family]
            opcode_tag = _OPCODE_TAGS[op.family][op.opcode]
        except KeyError:
            raise ValueError(f"op {op.family}/{op.opcode} has no wire tag") from None
        out += bytes((family_tag, opcode_tag, len(op.args)))
        for arg in op.args:
            if isinstance(arg, bool):
                raise ValueError("boolean op arguments are not supported on the wire")
            if isinstance(arg, int):
                out += _INT_ARG.pack(_ARG_INT, arg)
            elif isinstance(arg, str):
                out.append(_ARG_STR)
                out += _blob16(arg.encode())
            elif isinstance(arg, tuple):
                out += _PAIRS_HEAD.pack(_ARG_PAIRS, len(arg))
                for key, value in arg:
                    out += _blob16(key.encode())
                    out += _blob16(value.encode())
            else:
                raise ValueError(f"unsupported op argument type: {type(arg).__name__}")
        for address_set in (txn.read_set, txn.write_set):
            out += _U16.pack(len(address_set))
            for address in sorted(address_set):
                out += _blob16(address)
        if has_dag:
            deps = txn.declared_dependencies
            out += _u32_array(len(deps) + 1).pack(len(deps), *deps)
    if has_dag:
        out += _u32_array(block.txn_count).pack(*block.shared_indegree)
    _U32.pack_into(out, 2, len(out) + 4)
    out += _U32.pack(zlib.crc32(out))
    return bytes(out)


def parse_block(data: bytes) -> Block:
    """Parse wire bytes back into a Block, or raise a descriptive error."""
    if len(data) < _MIN_SIZE:
        raise TruncatedBlockError(f"{len(data)} bytes is below the minimum of {_MIN_SIZE}")
    declared_total = _U32.unpack_from(data, 2)[0]
    if len(data) < declared_total:
        raise TruncatedBlockError(
            f"declared length {declared_total}, got {len(data)} bytes"
        )
    if len(data) > declared_total:
        raise MalformedBlockError("trailing bytes after declared length")
    end = len(data) - 4
    if zlib.crc32(data[:end]) != _U32.unpack_from(data, end)[0]:
        raise ChecksumMismatchError("checksum mismatch")
    version, flags, _, txn_count = _HEADER.unpack_from(data)
    if version != WIRE_VERSION:
        raise MalformedBlockError(f"unsupported version {version}")
    if flags & ~_FLAG_SHARED_DAG:
        raise MalformedBlockError(f"unknown flag bits 0x{flags:02x}")
    has_dag = bool(flags & _FLAG_SHARED_DAG)
    if txn_count > MAX_BLOCK_TXNS:
        raise BlockTooLargeError(f"block declares {txn_count} txns, cap is {MAX_BLOCK_TXNS}")
    off = _HEADER.size
    transactions = []
    for index in range(txn_count):
        if off + 2 > end:
            raise _truncated(2, off, end)
        family = _FAMILY_NAMES.get(data[off])
        if family is None:
            raise MalformedBlockError(f"unknown family tag {data[off]}")
        opcode = _OPCODE_NAMES[family].get(data[off + 1])
        if opcode is None:
            raise MalformedBlockError(f"unknown {family} opcode tag {data[off + 1]}")
        off += 2
        if off >= end:
            raise _truncated(1, off, end)
        argc = data[off]
        off += 1
        args = []
        for _ in range(argc):
            if off >= end:
                raise _truncated(1, off, end)
            tag = data[off]
            off += 1
            if tag == _ARG_INT:
                if off + 8 > end:
                    raise _truncated(8, off, end)
                args.append(_U64.unpack_from(data, off)[0])
                off += 8
            elif tag == _ARG_STR:
                text, off = _read_str16(data, off, end)
                args.append(text)
            elif tag == _ARG_PAIRS:
                if off + 2 > end:
                    raise _truncated(2, off, end)
                count = _U16.unpack_from(data, off)[0]
                off += 2
                pairs = []
                for _ in range(count):
                    key, off = _read_str16(data, off, end)
                    value, off = _read_str16(data, off, end)
                    pairs.append((key, value))
                args.append(tuple(pairs))
            else:
                raise MalformedBlockError(f"unknown argument tag {tag}")
        sets = []
        for kind in ("read", "write"):
            if off + 2 > end:
                raise _truncated(2, off, end)
            count = _U16.unpack_from(data, off)[0]
            off += 2
            addresses = []
            for _ in range(count):
                address, off = _read_blob16(data, off, end)
                # the one encoding serialize_block writes: no other order,
                # no repeats, so re-serializing gives back these bytes
                if addresses and address <= addresses[-1]:
                    raise MalformedBlockError(
                        f"transaction {index} {kind} set is not strictly ascending"
                    )
                addresses.append(address)
            sets.append(frozenset(addresses))
        deps = None
        if has_dag:
            if off + 4 > end:
                raise _truncated(4, off, end)
            dep_count = _U32.unpack_from(data, off)[0]
            off += 4
            size = 4 * dep_count
            if off + size > end:
                raise _truncated(size, off, end)
            deps = _u32_array(dep_count).unpack_from(data, off)
            off += size
            if deps and max(deps) >= index:
                bad = next(dep for dep in deps if dep >= index)
                raise MalformedBlockError(
                    f"transaction {index} declares dependency {bad} not below it"
                )
        transactions.append(
            Transaction(
                index=index,
                read_set=sets[0],
                write_set=sets[1],
                payload=FamilyOp(family, opcode, tuple(args)),
                declared_dependencies=deps,
            )
        )
    shared_indegree = None
    if has_dag:
        size = 4 * txn_count
        if off + size > end:
            raise _truncated(size, off, end)
        shared_indegree = _u32_array(txn_count).unpack_from(data, off)
        off += size
        limit = max(txn_count, 1)
        if shared_indegree and max(shared_indegree) >= limit:
            index = next(i for i, entry in enumerate(shared_indegree) if entry >= limit)
            raise MalformedBlockError(
                f"indegree {shared_indegree[index]} for transaction {index} out of range"
            )
    if off != end:
        raise MalformedBlockError(f"{end - off} undeclared bytes in body")
    return Block(transactions=tuple(transactions), shared_indegree=shared_indegree)
