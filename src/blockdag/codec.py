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
each packed or unpacked in a single call. A list is packed from its own
tuple, its count apart, so it is not copied. The parser range-checks each
dependency list by its largest entry, ``sorted(deps)[-1]``, whose compares
stay in C: an honest list is ascending, one run for ``sorted`` to find,
while ``max()`` goes through rich compares at about twice the cost. The
indegree trailer is in no order and keeps ``max()``. Every count read off
the wire is checked against the bytes left before it is used, and strings
that are not UTF-8 are malformed, so a CRC-valid body that lies raises a
``BlockCodecError`` subclass, never ``struct.error``, ``IndexError``,
``MemoryError`` or ``UnicodeDecodeError``.

Both directions read the one opcode table, ``families.OP_SCHEMAS``, which
each ``FamilyOp`` was checked against when it was made. The serializer
checks only the wire's own limits (u16 string lengths and pair counts); a
dependency or an indegree entry needs none, since every ``Transaction``
holds only ints below its own index, its position, and every ``Block``
only indegree entries below its transaction count, in a block the
serializer has already held to the block cap. The parser checks each
record's opcode, argument count and tags, derives the sets from the
decoded arguments, and requires the wire's set section to be their
canonical encoding (addresses strictly ascending) byte for byte. Each
check is one fast step, with a slow path that runs only to name what is
wrong: a record's three head bytes (family tag, opcode tag, argument count)
are one dict lookup, and the set section is one compare. So a block that
parses carries the sets its ops declare, and re-serializes to the bytes it
came from.

The per-record work is kept to the floor in both directions. An op whose
read set is its write set object and holds one address (every op but a
wallet transfer, a voting op or an insurance read) has its section packed
directly: one ``struct`` call, written twice. Any other pair of sets is
encoded once per call (a memo dropped when the call returns) and still
compared for every record. ``parse_block`` builds each ``Transaction``
and ``FamilyOp``, and ``attach_dag`` each ``Transaction``, on a private
layout twin (``_TxnFields``, ``_OpFields``: the class's slots and nothing
else), filled with plain attribute stores and then retyped with one
``__class__`` assignment, skipping the constructors' calls and checks:
every field they store is one those checks would pass, and CPython refuses
the retype if the twin's layout ever drifts from its class.

Each transaction's sets are derived from its op once, where its block is
made. ``block_from_ops`` and ``parse_block`` return a *checked* block
(``Block._checked``, which skips ``Block``'s constructor), and
``attach_dag`` keeps the mark, since it keeps the input's sets and its
indegrees are its lists' lengths. The serializer trusts a checked block's
sets. Any other block, such as one from ``Block(...)`` or
``dataclasses.replace``, has its sets derived again and compared. No
block's dependencies or indegrees are checked again: each dependency is
below its transaction wherever the transaction was made (its constructor,
the parser's wire check or a ``DependencyDAG``), and each indegree entry
below the transaction count wherever the block was made (its constructor,
the parser's wire check or ``attach_dag``'s list lengths), so the bytes
written always parse.
"""

from __future__ import annotations

import functools
import struct
import zlib
from typing import Callable, NamedTuple

from .dag import DependencyDAG
from .model import Address, Block, Transaction
from .families import OP_SCHEMAS, PAIRS, STR, U64, FamilyOp

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

_ARG_INT = 0
_ARG_STR = 1
_ARG_PAIRS = 2
_KIND_TAGS = {U64: _ARG_INT, STR: _ARG_STR, PAIRS: _ARG_PAIRS}
_TAG_KINDS = {tag: kind for kind, tag in _KIND_TAGS.items()}

_HEADER = struct.Struct("<BBII")  # version, flags, total length, txn count
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_INT_ARG = struct.Struct("<BQ")  # tag, value
_TAGGED_U16 = struct.Struct("<BH")  # tag, then a string's byte length or a pair count
_NO_DEPS = _U32.pack(0)  # an empty dependency list
_SET_OF_ONE = struct.Struct("<HH")  # count 1, address length


class _WireOp(NamedTuple):
    """One opcode as the wire sees it: the opcode table's entry plus tags."""

    family: str
    opcode: str
    head: bytes  # family tag, opcode tag, argc
    arg_tags: tuple[int, ...]
    sets: Callable[[tuple], tuple[frozenset[Address], frozenset[Address]]]


# every tagged opcode has exactly one entry in the opcode table
_WIRE_OPS = {
    (family, opcode): _WireOp(
        family,
        opcode,
        bytes((_FAMILY_TAGS[family], tag, len(schema.args))),
        tuple(_KIND_TAGS[kind] for kind in schema.args),
        schema.sets,
    )
    for family, table in _OPCODE_TAGS.items()
    for opcode, tag in table.items()
    for schema in (OP_SCHEMAS[family, opcode],)
}
_OPS_BY_HEAD = {op.head: op for op in _WIRE_OPS.values()}
_OPS_BY_TAG = {
    _FAMILY_TAGS[family]: {op.head[1]: op for op in _WIRE_OPS.values() if op.family == family}
    for family in _OPCODE_TAGS
}


class _TxnFields:
    """``Transaction``'s slot layout without its frozen ``__setattr__``.

    ``parse_block`` has checked each record as it decoded it, and
    ``attach_dag`` copies a block's own objects, so both fill one of these
    with plain attribute stores and then retype it, ``__class__ =
    Transaction``. CPython allows that only between equal layouts, and
    raises ``TypeError`` if the twin ever drifts from its class.
    """

    __slots__ = Transaction.__slots__


class _OpFields:
    """``FamilyOp``'s slot layout, filled and retyped like ``_TxnFields``."""

    __slots__ = FamilyOp.__slots__


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
    """Packs or unpacks ``count`` consecutive u32 values in one call.

    A block with more than 1 024 distinct list lengths (a chain longer than
    1 024 transactions) compiles each of them again on every call, since an
    LRU cache misses every key of an ascending run longer than itself; that
    is under 1% of a parse at the block cap. Room for every count up to
    ``MAX_BLOCK_TXNS`` would hold about 1 MB of ``Struct`` objects for the
    life of the process, and a fresh process compiles every count of its
    first block either way.
    """
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


def _set_section(read_set: frozenset[Address], write_set: frozenset[Address]) -> bytes:
    """The canonical encoding of a read set followed by a write set."""
    encoded = _encode_set(read_set)
    return encoded + (encoded if write_set == read_set else _encode_set(write_set))


def _encode_set(addresses: frozenset[Address]) -> bytes:
    """A set's one encoding: u16 count, then each address ascending."""
    return _U16.pack(len(addresses)) + b"".join(map(_blob16, sorted(addresses)))


def _bad_head(data: bytes, off: int, end: int, index: int) -> BlockCodecError:
    """Why the record head at ``off`` names no op: a head cut short, an
    unknown family or opcode tag, or an argument count the op does not take.

    It is called only when the three bytes at ``off`` are not one op's
    ``head`` or run past the body, and checks them in the order they are
    read: both tags, then the argument count.
    """
    if off + 2 > end:
        return _truncated(2, off, end)
    family_ops = _OPS_BY_TAG.get(data[off])
    if family_ops is None:
        return MalformedBlockError(f"unknown family tag {data[off]}")
    op = family_ops.get(data[off + 1])
    if op is None:
        return MalformedBlockError(
            f"unknown {_FAMILY_NAMES[data[off]]} opcode tag {data[off + 1]}"
        )
    if off + 2 >= end:
        return _truncated(1, off + 2, end)
    return MalformedBlockError(
        f"transaction {index} {op.family}/{op.opcode} has {data[off + 2]} arguments, "
        f"expected {len(op.arg_tags)}"
    )


def _set_mismatch(data: bytes, off: int, end: int, index: int, op: _WireOp, derived) -> Exception:
    """Why the set section at ``off`` is not the encoding of the ``derived``
    sets. An address list out of order, repeated or cut short is reported
    as such; any other difference names the set that is not the op's.

    It is called only when the wire is not that encoding, and a strictly
    ascending list has only one, so when the read set is the op's the write
    set is at fault.
    """
    for kind, want in zip(("read", "write"), derived):
        if off + 2 > end:
            return _truncated(2, off, end)
        count = _U16.unpack_from(data, off)[0]
        off += 2
        addresses = []
        for _ in range(count):
            address, off = _read_blob16(data, off, end)
            if addresses and address <= addresses[-1]:
                return MalformedBlockError(
                    f"transaction {index} {kind} set is not strictly ascending"
                )
            addresses.append(address)
        if kind == "write" or frozenset(addresses) != want:
            return MalformedBlockError(
                f"transaction {index} {kind} set is not the one its "
                f"{op.family}/{op.opcode} op declares"
            )


def attach_dag(block: Block, dag: DependencyDAG) -> Block:
    """New block carrying the DAG: per-transaction predecessor lists plus
    the indegree trailer, both read from the DAG's ``preds`` in place.

    A checked input gives a checked block, built without ``Block``'s
    constructor: its sets are the input's, its transactions are at their
    positions and all carry a list, and each indegree is a list's length, so
    below the transaction count. Any other input gives ``Block(...)``,
    checked as any block is. The transactions skip their constructor's
    dependency check: a ``DependencyDAG`` holds only predecessors below
    their transaction.
    """
    if dag.txn_count != block.txn_count:
        raise ValueError("DAG does not match block")
    transactions = []
    for txn, deps in zip(block.transactions, dag.preds):
        copy = _TxnFields()
        copy.index = txn.index
        copy.read_set = txn.read_set
        copy.write_set = txn.write_set
        copy.payload = txn.payload
        copy.declared_dependencies = deps
        copy.__class__ = Transaction
        transactions.append(copy)
    make = Block._checked if block._is_checked else Block
    return make(tuple(transactions), tuple(map(len, dag.preds)))


def serialize_block(block: Block, dag: DependencyDAG | None = None) -> bytes:
    """Deterministic bytes for a block; same input always yields same output.

    When a DAG is given it is embedded (replacing whatever shared-DAG fields
    the block already has); otherwise the block's own fields are written
    as-is, shared section included only if present. Each op was checked
    against the opcode table when it was made, each dependency when its
    transaction was and each indegree entry when its block was, so none
    needs a check here; every string and pair list must fit its u16
    prefix, or ``ValueError`` is raised.

    A checked block (from ``block_from_ops``, ``parse_block`` or
    ``attach_dag`` of a checked block) is trusted to carry its ops' sets,
    as its maker made sure. Any other block has its sets checked, or
    ``ValueError`` is raised, so the bytes always parse.
    """
    if block.txn_count > MAX_BLOCK_TXNS:
        raise BlockTooLargeError(f"block has {block.txn_count} txns, cap is {MAX_BLOCK_TXNS}")
    if dag is not None:
        block = attach_dag(block, dag)
    checked = block._is_checked
    has_dag = block.has_shared_dag
    flags = _FLAG_SHARED_DAG if has_dag else 0
    # total length is patched in once the body is known
    out = bytearray(_HEADER.pack(WIRE_VERSION, flags, 0, block.txn_count))
    sections = {}  # (read set, write set) -> its canonical section
    for txn in block.transactions:
        payload: FamilyOp = txn.payload
        op = _WIRE_OPS[payload.family, payload.opcode]
        args = payload.args
        out += op.head
        for tag, arg in zip(op.arg_tags, args):
            if tag == _ARG_STR:
                encoded = arg.encode()
                if len(encoded) > 0xFFFF:
                    raise ValueError("field too long for u16 length prefix")
                out += _TAGGED_U16.pack(_ARG_STR, len(encoded))
                out += encoded
            elif tag == _ARG_INT:
                out += _INT_ARG.pack(_ARG_INT, arg)
            else:
                if len(arg) > 0xFFFF:
                    raise ValueError("too many field pairs for a u16 count")
                out += _TAGGED_U16.pack(_ARG_PAIRS, len(arg))
                for key, value in arg:
                    out += _blob16(key.encode()) + _blob16(value.encode())
        if checked:
            read_set = txn.read_set
            write_set = txn.write_set
        else:
            read_set, write_set = op.sets(args)
            if txn.read_set != read_set or txn.write_set != write_set:
                raise ValueError(
                    f"transaction {txn.index} sets are not the ones its "
                    f"{op.family}/{op.opcode} op declares"
                )
        if read_set is write_set and len(read_set) == 1:
            (address,) = read_set
            if len(address) > 0xFFFF:
                raise ValueError("field too long for u16 length prefix")
            section = _SET_OF_ONE.pack(1, len(address)) + address
            out += section
            out += section
        else:
            sets = (read_set, write_set)
            section = sections.get(sets)
            if section is None:
                section = sections[sets] = _set_section(*sets)
            out += section
        if has_dag:
            deps = txn.declared_dependencies
            if deps:
                out += _U32.pack(len(deps))
                out += _u32_array(len(deps)).pack(*deps)
            else:
                out += _NO_DEPS
    if has_dag:
        out += _u32_array(block.txn_count).pack(*block.shared_indegree)
    _U32.pack_into(out, 2, len(out) + 4)
    out += _U32.pack(zlib.crc32(out))
    return bytes(out)


def parse_block(data: bytes) -> Block:
    """Parse wire bytes back into a Block, or raise a descriptive error.

    Each record's arguments must have the count and kinds its opcode's
    table entry gives; they are decoded into those kinds, so the ops are
    built without ``FamilyOp``'s check. The read and write sets are derived
    from the arguments, and the wire's set section must be their canonical
    encoding byte for byte, so the block carries the sets its ops declare.
    """
    data = bytes(data)  # the head lookup hashes slices; a bytes object is not copied
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
    if zlib.crc32(memoryview(data)[:end]) != _U32.unpack_from(data, end)[0]:
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
    sections = {}  # (read set, write set) -> its canonical section
    for index in range(txn_count):
        op = _OPS_BY_HEAD.get(data[off : off + 3])
        if op is None or off + 3 > end:
            raise _bad_head(data, off, end, index)
        off += 3
        args = []
        for want in op.arg_tags:
            if off >= end:
                raise _truncated(1, off, end)
            tag = data[off]
            off += 1
            if tag != want:
                if tag not in _TAG_KINDS:
                    raise MalformedBlockError(f"unknown argument tag {tag}")
                raise MalformedBlockError(
                    f"transaction {index} {op.family}/{op.opcode} argument {len(args)} "
                    f"is {_TAG_KINDS[tag]}, expected {_TAG_KINDS[want]}"
                )
            if tag == _ARG_STR:  # _read_str16 inline: same offsets, same errors
                if off + 2 > end:
                    raise _truncated(2, off, end)
                start = off + 2
                off = start + (data[off] | data[off + 1] << 8)
                if off > end:
                    raise _truncated(off - start, start, end)
                try:
                    args.append(data[start:off].decode())
                except UnicodeDecodeError as exc:
                    raise MalformedBlockError(
                        f"string at offset {start} is not UTF-8: {exc.reason}"
                    ) from exc
            elif tag == _ARG_INT:
                if off + 8 > end:
                    raise _truncated(8, off, end)
                args.append(_U64.unpack_from(data, off)[0])
                off += 8
            else:
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
        args = tuple(args)
        sets = op.sets(args)
        read_set, write_set = sets
        if read_set is write_set and len(read_set) == 1:
            (address,) = read_set
            if len(address) > 0xFFFF:  # too long for its u16 prefix: no encoding
                raise _set_mismatch(data, off, end, index, op, sets)
            section = _SET_OF_ONE.pack(1, len(address)) + address
            section += section
        else:
            section = sections.get(sets)
            if section is None:
                try:
                    section = sections[sets] = _set_section(*sets)
                except ValueError:  # an address too long for its u16 prefix: no encoding
                    raise _set_mismatch(data, off, end, index, op, sets) from None
        if not data.startswith(section, off, end):
            raise _set_mismatch(data, off, end, index, op, sets)
        off += len(section)
        deps = None
        if has_dag:
            if off + 4 > end:
                raise _truncated(4, off, end)
            dep_count = _U32.unpack_from(data, off)[0]
            off += 4
            if dep_count:
                size = 4 * dep_count
                if off + size > end:
                    raise _truncated(size, off, end)
                deps = _u32_array(dep_count).unpack_from(data, off)
                off += size
                if sorted(deps)[-1] >= index:
                    bad = next(dep for dep in deps if dep >= index)
                    raise MalformedBlockError(
                        f"transaction {index} declares dependency {bad} not below it"
                    )
            else:
                deps = ()
        payload = _OpFields()
        payload.family = op.family
        payload.opcode = op.opcode
        payload.args = args
        payload.__class__ = FamilyOp
        txn = _TxnFields()
        txn.index = index
        txn.read_set = read_set
        txn.write_set = write_set
        txn.payload = payload
        txn.declared_dependencies = deps
        txn.__class__ = Transaction
        transactions.append(txn)
    shared_indegree = None
    if has_dag:
        size = 4 * txn_count
        if off + size > end:
            raise _truncated(size, off, end)
        shared_indegree = _u32_array(txn_count).unpack_from(data, off)
        off += size
        if shared_indegree and max(shared_indegree) >= txn_count:
            index = next(i for i, entry in enumerate(shared_indegree) if entry >= txn_count)
            raise MalformedBlockError(
                f"indegree {shared_indegree[index]} for transaction {index} out of range"
            )
    if off != end:
        raise MalformedBlockError(f"{end - off} undeclared bytes in body")
    return Block._checked(tuple(transactions), shared_indegree)
