"""GriddLeS Name Service: the versioned, watchable control plane that
makes the FM re-wirable — even mid-run — without touching application
code."""

from .client import GnsClient, LocalGnsClient, WatchBatch
from .matcher import ConnectionMatcher, StreamBinding
from .persistence import dump_records, load_gns, load_records, save_gns
from .records import BufferEndpoint, GnsRecord, IOMode
from .server import GnsServer, NameService
from .store import DEFAULT_NAMESPACE, GnsAuthError, RecordStore

__all__ = [
    "GnsClient",
    "LocalGnsClient",
    "WatchBatch",
    "ConnectionMatcher",
    "StreamBinding",
    "BufferEndpoint",
    "GnsRecord",
    "IOMode",
    "GnsServer",
    "NameService",
    "DEFAULT_NAMESPACE",
    "GnsAuthError",
    "RecordStore",
    "dump_records",
    "load_gns",
    "load_records",
    "save_gns",
]
