"""The File Multiplexer — the paper's primary contribution.

Public surface:

* :class:`FileMultiplexer` / :class:`GridContext` — per-process FM.
* :class:`FMFile` — the POSIX-style handle it returns.
* :func:`interposed` — ``builtins.open`` interception for legacy code.
* :class:`AccessPolicy` — copy-vs-proxy heuristics.
* :class:`ReplicaSelector` — NWS-driven replica choice with re-mapping.
* :class:`RecordSchema` — XDR-style neutral encoding for heterogeneity.
"""

from .buffer_client import GridBufferClientPool
from .heterogeneity import (
    NATIVE_BYTE_ORDER,
    FieldType,
    HeterogeneityError,
    RecordSchema,
    needs_swap,
)
from .fortran import FortranRecordReader, FortranRecordWriter, translate_fortran_stream
from .interpose import FmOpen, interposed
from .local_client import LocalFileClient
from .modes import BufferEndpoint, GnsRecord, IOMode
from .multiplexer import FileMultiplexer, FMError, FMFile, GridContext, OpenStats
from .policy import AccessEstimate, AccessPolicy, RemoteDecision, observed_estimate
from .remote_client import CopyInOutFile, RemoteFileClient, RemoteProxyFile
from .remote_io import BlockCache, ReadAheadWindow, RunBatcher
from .replica import NoReplicaError, ReplicaChoice, ReplicaSelector
from .trace import FmTracer, TraceEvent, TransferMonitor, TransferSample
from .translating import TranslatingReader, TranslatingWriter

__all__ = [
    "GridBufferClientPool",
    "NATIVE_BYTE_ORDER",
    "FieldType",
    "HeterogeneityError",
    "RecordSchema",
    "needs_swap",
    "FortranRecordReader",
    "FortranRecordWriter",
    "translate_fortran_stream",
    "FmOpen",
    "interposed",
    "LocalFileClient",
    "BufferEndpoint",
    "GnsRecord",
    "IOMode",
    "FileMultiplexer",
    "FMError",
    "FMFile",
    "GridContext",
    "OpenStats",
    "AccessEstimate",
    "AccessPolicy",
    "RemoteDecision",
    "CopyInOutFile",
    "RemoteFileClient",
    "RemoteProxyFile",
    "NoReplicaError",
    "ReplicaChoice",
    "ReplicaSelector",
    "TranslatingReader",
    "TranslatingWriter",
    "FmTracer",
    "TraceEvent",
    "TransferMonitor",
    "TransferSample",
    "BlockCache",
    "ReadAheadWindow",
    "RunBatcher",
    "observed_estimate",
]
