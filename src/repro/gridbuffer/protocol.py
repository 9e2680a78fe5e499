"""Wire-protocol constants for the Grid Buffer service.

The paper's implementation used SOAP over Web Services; we keep the
role (self-describing messages on one firewall-friendly channel) on the
framed RPC layer of :mod:`repro.transport`.  Block size defaults to 4096 bytes — the typical
write size the paper reports for the climate models.
"""

from __future__ import annotations

__all__ = [
    "DEFAULT_BLOCK_SIZE",
    "DEFAULT_CAPACITY",
    "DEFAULT_READ_BUDGET",
    "OP_CREATE",
    "OP_REGISTER_READER",
    "OP_WRITE",
    "OP_WRITE_MULTI",
    "OP_READ",
    "OP_READ_MULTI",
    "OP_CONSUME_MULTI",
    "OP_CLOSE_WRITER",
    "OP_STATS",
    "OP_DROP",
    "OP_EXISTS",
    "OP_ABORT",
    "OP_RESUME",
    "OP_HIGH_WATER",
]

#: Typical legacy-application write granularity (paper Section 5.3).
DEFAULT_BLOCK_SIZE = 4096

#: Default per-stream table capacity; bounded so backpressure exists.
DEFAULT_CAPACITY = 32 * 1024 * 1024

#: Default byte budget for a windowed (vectored) read.
DEFAULT_READ_BUDGET = DEFAULT_BLOCK_SIZE * 16

OP_CREATE = "gb.create"
OP_REGISTER_READER = "gb.register_reader"
OP_WRITE = "gb.write"
OP_READ = "gb.read"
OP_CLOSE_WRITER = "gb.close_writer"
OP_STATS = "gb.stats"
OP_DROP = "gb.drop"
OP_EXISTS = "gb.exists"
OP_ABORT = "gb.abort"
OP_RESUME = "gb.resume"
OP_HIGH_WATER = "gb.high_water"

# -- vectored fast-path ops ----------------------------------------------
# These ops move more per round trip than the per-block ops above.

#: Scatter several blocks in one frame.  Header: ``name``, ``offsets``
#: (list), ``sizes`` (list, same length); payload is the blocks
#: concatenated in order.  Reply: ``{"written": total}``.
OP_WRITE_MULTI = "gb.write_multi"

#: Windowed read: return as many contiguous bytes as are available at
#: ``offset`` up to ``budget`` in one reply (blocking only while
#: nothing is available, like ``gb.read``).  Header additionally
#: carries ``min_bytes`` (wait until at least this much is available
#: or the window/EOF bounds it).  Reply: ``{"eof": bool, "total": int
#: | null}`` — ``total`` is the stream length once the writer closed,
#: letting clients stop scheduling read-ahead past EOF.
OP_READ_MULTI = "gb.read_multi"

#: Mark byte ranges consumed for one or more readers *without*
#: transferring them (the readers got the bytes from a co-located
#: reader's fetch).  Header: ``name``, ``entries`` — a list of
#: ``[reader_id, ranges]`` pairs, ranges as lists of [start, end).
#: Keeps delete-on-read GC and per-reader lag gauges exact when a
#: shared client-side cache dedupes broadcast reads; the shared-cache
#: ack aggregator batches co-located readers so they pay one round trip
#: and one server-side GC pass per flush instead of one each.
OP_CONSUME_MULTI = "gb.consume_multi"
