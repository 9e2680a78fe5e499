"""The one wire format of the RPC layer.

Every frame on every connection — request or reply, first or last —
has the same shape:

Preamble (14 bytes, fixed)::

    +-------+---------+-------+--------+------------+-------------+
    | magic | version | flags | op id  | fields_len | payload_len |
    |  0xB1 |  uint8  | uint8 | u16 BE |   u32 BE   |   u32 BE    |
    +-------+---------+-------+--------+------------+-------------+

followed by ``fields_len`` bytes of a compact varint-packed field
table (the op arguments), ``payload_len`` bytes of raw payload, and a
4-byte big-endian crc32 trailer over the payload.  ``flags`` is always
exactly :data:`FLAG_CRC`; a receiver refuses any frame whose magic,
version or flags differ, or whose field table claims more than
:data:`MAX_HEADER` bytes, and closes the connection.  There is no
negotiation and no second codec: every client and server ships from
this tree.

Field table
-----------

``varint count`` then per field: a key id (varint; well-known keys from
:data:`KEYS` encode as one byte, anything else as id 0 + literal
string) and a type-tagged value:

====  =======================================================
tag   encoding
====  =======================================================
0/1/2 None / True / False (no body)
3     int — zigzag varint (up to 1024 bits)
4     float — 8-byte IEEE big-endian
5     str — varint length + UTF-8
6     bytes — varint length + raw
7     list — varint count + values
8     dict — varint count + (str key, value) pairs
====  =======================================================

Known op names from :data:`OPS` ride in the preamble's op id; unknown
ops set id 0 and carry the name in the field table, so arbitrary
test/bench handlers work unchanged.

The frame builder encodes into a caller-owned ``bytearray`` that is
cleared and reused across frames, so the steady-state send path
performs no per-frame header allocations.
"""

from __future__ import annotations

import struct
from typing import Any, Dict, Mapping, Tuple

from .. import ioutil

__all__ = [
    "MAGIC",
    "WIRE_VERSION",
    "PREAMBLE",
    "PREAMBLE_SIZE",
    "MAX_HEADER",
    "TRACE_KEY",
    "FLAG_CRC",
    "CRC_TRAILER",
    "CRC_TRAILER_SIZE",
    "OPS",
    "op_id",
    "op_name",
    "encode_fields",
    "decode_fields",
    "build_binary_frame",
    "crc_trailer",
    "unpack_preamble",
    "decode_binary_header",
    "finish_frame",
    "WireError",
    "IntegrityError",
]

#: First byte of every frame.
MAGIC = 0xB1

#: Bumped only for incompatible preamble changes.
WIRE_VERSION = 1

#: magic, version, flags, op id, fields_len, payload_len.
PREAMBLE = struct.Struct(">BBBHII")
PREAMBLE_SIZE = PREAMBLE.size

#: Largest field table a receiver accepts.  The preamble's
#: ``fields_len`` comes straight off the socket; without this cap a
#: peer claiming a huge table would park the receiver until its IO
#: timeout instead of failing the frame at once.
MAX_HEADER = 16 * 1024 * 1024

#: Header key carrying the caller's trace context (``[trace_id,
#: span_id]``) as a one-byte known-key id in the field table.
TRACE_KEY = "_trace"

#: Preamble flag bit: the frame's payload is followed by a 4-byte
#: big-endian crc32 trailer computed over the payload bytes (masked to
#: unsigned, :func:`repro.ioutil.crc32`).  The trailer covers *only*
#: the payload — the preamble and field table are length-delimited and
#: structurally validated, while the payload is the part that flows
#: through opaque bulk-copy paths where a flipped bit survives parsing.
#: Every frame sets it, and it is the only flag: a frame with any other
#: flags byte is refused (reading on could desynchronise the stream).
FLAG_CRC = 0x01

CRC_TRAILER = struct.Struct(">I")
CRC_TRAILER_SIZE = CRC_TRAILER.size

_FLOAT = struct.Struct(">d")

#: Widest integer the field codec carries (zigzag-encoded bits).  The
#: decoder refuses longer varints, so a malformed table cannot make it
#: build an arbitrarily large int.
_MAX_INT_BITS = 1024


class WireError(ValueError):
    """Malformed binary field table."""


class IntegrityError(OSError):
    """A frame or block failed checksum verification.

    Deliberately *not* a :class:`ConnectionError`: the connection is
    healthy, the data is wrong.  It still subclasses :class:`OSError`
    so every recovery path built in PRs 4–8 (idempotency-gated RPC
    retries, replica failover, copy-in resume, GNS degradation) treats
    a detected corruption exactly like any other transient IO failure:
    drop the tainted source, re-request from a clean one.
    """


# ---------------------------------------------------------------------------
# Op and key tables (ids are part of the wire contract)
# ---------------------------------------------------------------------------

OPS: Tuple[str, ...] = (
    # Grid Buffer
    "gb.create", "gb.register_reader", "gb.write", "gb.write_multi",
    "gb.read", "gb.read_multi", "gb.consume_multi",
    "gb.close_writer", "gb.stats", "gb.drop", "gb.exists",
    "gb.abort", "gb.resume", "gb.high_water",
    # GridFTP-like file server
    "size", "exists", "get_block", "put_block", "checksum",
    "mkdirs", "delete", "pull_from",
    # GNS
    "gns.resolve", "gns.add", "gns.remove", "gns.list",
    "gns.announce", "gns.pin",
    # GNS control plane (PR 10): atomic multi-record transactions and
    # long-poll change subscriptions.
    "gns.txn", "gns.watch",
)

_OP_TO_ID: Dict[str, int] = {name: i + 1 for i, name in enumerate(OPS)}
_ID_TO_OP: Dict[int, str] = {i + 1: name for i, name in enumerate(OPS)}

KEYS: Tuple[str, ...] = (
    "op", "ok", "error", "message", "name", "reader_id", "offset",
    "length", "timeout", "budget", "min_bytes", "ranges", "token",
    "seq", "offsets", "sizes", "n_readers", "capacity_bytes", "cache",
    "eof", "total", "written", "stall", "stats", "exists", "path",
    "truncate", "src_host", "src_port", "src_path", "dst_path",
    "streams", "block_size", "entries", "reason", "deleted", "sha256",
    "size", "bytes", "machine", "record", "records", "payload_len",
    TRACE_KEY,
    # ``gen`` is the stream generation a gb.register_reader reply
    # carries (clients key their shared block cache on it).
    "gen",
    # GNS control plane (PR 10).  ``ns`` scopes an op to a namespace,
    # ``auth`` carries its bearer token, ``revision``/``from_revision``
    # frame the change log, ``events`` is a watch reply's change batch,
    # ``reset`` marks a compaction-forced snapshot, ``ops`` a txn's
    # operation list, ``removed`` the gns.remove reply count.
    "ns", "auth", "revision", "from_revision", "events", "reset",
    "ops", "removed",
)

_KEY_TO_ID: Dict[str, int] = {name: i + 1 for i, name in enumerate(KEYS)}
_ID_TO_KEY: Dict[int, str] = {i + 1: name for i, name in enumerate(KEYS)}


def op_id(op: str) -> int:
    """Wire id for a known op, or 0 (op name travels in the fields)."""
    return _OP_TO_ID.get(op, 0)


def op_name(opid: int) -> str:
    return _ID_TO_OP.get(opid, "")


# ---------------------------------------------------------------------------
# Varint field codec
# ---------------------------------------------------------------------------


def _put_uvarint(out: bytearray, n: int) -> None:
    while n > 0x7F:
        out.append((n & 0x7F) | 0x80)
        n >>= 7
    out.append(n)


def _put_int(out: bytearray, value: int) -> None:
    zigzag = (value << 1) if value >= 0 else ((-value) << 1) - 1
    if zigzag >> _MAX_INT_BITS:
        raise WireError(f"integer header value wider than {_MAX_INT_BITS} bits")
    out.append(3)
    _put_uvarint(out, zigzag)


def _put_value(out: bytearray, value: Any) -> None:
    if value is None:
        out.append(0)
    elif value is True:
        out.append(1)
    elif value is False:
        out.append(2)
    elif type(value) is int:
        _put_int(out, value)
    elif type(value) is float:
        out.append(4)
        out += _FLOAT.pack(value)
    elif type(value) is str:
        raw = value.encode("utf-8")
        out.append(5)
        _put_uvarint(out, len(raw))
        out += raw
    elif isinstance(value, (bytes, bytearray, memoryview)):
        out.append(6)
        _put_uvarint(out, len(value))
        out += value
    elif isinstance(value, (list, tuple)):
        out.append(7)
        _put_uvarint(out, len(value))
        for item in value:
            _put_value(out, item)
    elif isinstance(value, dict):
        out.append(8)
        _put_uvarint(out, len(value))
        for key, item in value.items():
            raw = str(key).encode("utf-8")
            _put_uvarint(out, len(raw))
            out += raw
            _put_value(out, item)
    elif isinstance(value, int):  # bool handled above; int subclasses
        _put_int(out, int(value))
    elif isinstance(value, float):
        out.append(4)
        out += _FLOAT.pack(value)
    else:
        raise WireError(f"unencodable header value type {type(value).__name__}")


def encode_fields(header: Mapping[str, Any], out: bytearray) -> None:
    """Append the varint field table for ``header`` to ``out``.

    ``payload_len`` is skipped — it lives in the preamble.
    """
    count_pos = len(out)
    count = 0
    out.append(0)  # patched below (field counts stay < 128 in practice)
    key_ids = _KEY_TO_ID
    for key, value in header.items():
        if key == "payload_len":
            continue
        kid = key_ids.get(key, 0)
        if kid:
            out.append(kid)
        else:
            out.append(0)
            raw = key.encode("utf-8")
            _put_uvarint(out, len(raw))
            out += raw
        _put_value(out, value)
        count += 1
    if count > 0x7F:
        raise WireError(f"too many header fields ({count})")
    out[count_pos] = count


def _get_uvarint(buf, pos: int) -> Tuple[int, int]:
    shift = 0
    result = 0
    while True:
        b = buf[pos]
        pos += 1
        result |= (b & 0x7F) << shift
        if not b & 0x80:
            return result, pos
        shift += 7
        if shift > _MAX_INT_BITS:
            raise WireError("varint overflow")


def _get_value(buf, pos: int) -> Tuple[Any, int]:
    tag = buf[pos]
    pos += 1
    if tag == 0:
        return None, pos
    if tag == 1:
        return True, pos
    if tag == 2:
        return False, pos
    if tag == 3:
        raw, pos = _get_uvarint(buf, pos)
        return (raw >> 1) if not raw & 1 else -((raw + 1) >> 1), pos
    if tag == 4:
        return _FLOAT.unpack_from(buf, pos)[0], pos + 8
    if tag == 5:
        n, pos = _get_uvarint(buf, pos)
        return bytes(buf[pos : pos + n]).decode("utf-8"), pos + n
    if tag == 6:
        n, pos = _get_uvarint(buf, pos)
        return bytes(buf[pos : pos + n]), pos + n
    if tag == 7:
        n, pos = _get_uvarint(buf, pos)
        items = []
        for _ in range(n):
            item, pos = _get_value(buf, pos)
            items.append(item)
        return items, pos
    if tag == 8:
        n, pos = _get_uvarint(buf, pos)
        out: Dict[str, Any] = {}
        for _ in range(n):
            klen, pos = _get_uvarint(buf, pos)
            key = bytes(buf[pos : pos + klen]).decode("utf-8")
            pos += klen
            out[key], pos = _get_value(buf, pos)
        return out, pos
    raise WireError(f"unknown value tag {tag}")


def decode_fields(buf) -> Dict[str, Any]:
    """Decode a field table (bytes/memoryview) back into a dict."""
    try:
        count = buf[0]
        pos = 1
        out: Dict[str, Any] = {}
        keys = _ID_TO_KEY
        for _ in range(count):
            kid = buf[pos]
            pos += 1
            if kid:
                key = keys.get(kid)
                if key is None:
                    raise WireError(f"unknown key id {kid}")
            else:
                klen, pos = _get_uvarint(buf, pos)
                key = bytes(buf[pos : pos + klen]).decode("utf-8")
                pos += klen
            out[key], pos = _get_value(buf, pos)
        if pos != len(buf):
            raise WireError(f"{len(buf) - pos} trailing bytes after field table")
        return out
    except (IndexError, struct.error) as exc:
        raise WireError(f"truncated field table: {exc}") from exc


# ---------------------------------------------------------------------------
# Frame builders (scratch-buffer based: no per-frame header allocations)
# ---------------------------------------------------------------------------


def build_binary_frame(
    scratch: bytearray, header: Mapping[str, Any], payload_len: int
) -> None:
    """Encode preamble + field table into ``scratch`` (cleared first).

    The payload itself is *not* appended — the caller either appends it
    (small frames: one ``sendall``) or gathers it (``sendmsg`` /
    separate ``write``), so large payloads are never copied here.  The
    caller also appends :func:`crc_trailer` after the payload.
    """
    del scratch[:]
    scratch += b"\x00" * PREAMBLE_SIZE
    opid = _OP_TO_ID.get(header.get("op", ""), 0)
    if opid:
        encode_fields({k: v for k, v in header.items() if k != "op"}, scratch)
    else:
        encode_fields(header, scratch)
    fields_len = len(scratch) - PREAMBLE_SIZE
    PREAMBLE.pack_into(scratch, 0, MAGIC, WIRE_VERSION, FLAG_CRC, opid, fields_len, payload_len)


def crc_trailer(payload) -> bytes:
    """The 4-byte trailer that follows ``payload`` on the wire."""
    return CRC_TRAILER.pack(ioutil.crc32(payload))


def unpack_preamble(raw) -> Tuple[int, int, int]:
    """Validate a preamble; returns ``(op id, fields_len, payload_len)``.

    Raises :class:`WireError` for anything but a current-version frame
    carrying exactly :data:`FLAG_CRC` with a field table no larger than
    :data:`MAX_HEADER` — before the receiver waits for a single byte
    past the preamble.
    """
    magic, version, flags, opid, flen, plen = PREAMBLE.unpack_from(raw, 0)
    if magic != MAGIC:
        raise WireError(f"bad frame magic 0x{magic:02x}")
    if version != WIRE_VERSION:
        raise WireError(f"unsupported wire version {version}")
    if flags != FLAG_CRC:
        raise WireError(f"unsupported wire flags 0x{flags:02x}")
    if flen > MAX_HEADER:
        raise WireError(f"field table length {flen} exceeds maximum")
    return opid, flen, plen


def decode_binary_header(opid: int, fields, payload_len: int) -> Dict[str, Any]:
    """Field table + preamble -> the header dict handlers expect."""
    header = decode_fields(fields)
    if opid:
        name = _ID_TO_OP.get(opid)
        if name is None:
            raise WireError(f"unknown op id {opid}")
        header["op"] = name
    header["payload_len"] = payload_len
    return header


def finish_frame(opid: int, fields, payload: bytes, trailer) -> Dict[str, Any]:
    """Decode a received frame's header and verify its payload CRC.

    Raises :class:`WireError` for a malformed field table and
    :class:`IntegrityError` when the trailer does not match — by then
    the whole frame has been consumed, so the failure is about the
    data, not the framing.
    """
    header = decode_binary_header(opid, fields, len(payload))
    want = CRC_TRAILER.unpack(trailer)[0]
    got = ioutil.crc32(payload)
    if got != want:
        raise IntegrityError(
            f"payload CRC mismatch on {header.get('op', '?')!r} frame: "
            f"got {got:#010x} want {want:#010x} ({len(payload)} bytes)"
        )
    return header
