"""Data-movement substrate: framed TCP RPC, GridFTP-like transfers,
and the in-process virtual-host registry used by the real FM."""

from .aio import AsyncRpcClient, AsyncRpcServer
from .gridftp import DEFAULT_BLOCK, GridFtpClient, GridFtpServer
from .inmem import DelayModel, HostRegistry, VirtualHost
from .tcp import FrameError, RpcClient, RpcError, RpcServer

__all__ = [
    "DEFAULT_BLOCK",
    "GridFtpClient",
    "GridFtpServer",
    "DelayModel",
    "HostRegistry",
    "VirtualHost",
    "FrameError",
    "RpcClient",
    "RpcError",
    "RpcServer",
    "AsyncRpcClient",
    "AsyncRpcServer",
]
