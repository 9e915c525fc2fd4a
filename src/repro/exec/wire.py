"""Wire codecs for the process engine's command channel.

The parent and each shard worker talk JSON over a
:class:`multiprocessing.connection.Connection` using the raw
``send_bytes``/``recv_bytes`` frames — no pickle on the command path, so
a malformed or hostile peer can at worst produce a ``ValueError``, never
code execution.  (The one pickled transfer — shipping a quiesced shard's
state back on FLUSH — is a separate, explicit frame; see
``repro.exec.process``.)

A lane's normalised forecast rows do not cross as JSON: their
``z_mean, z_variance`` pairs travel as one float64 frame beside the
envelope, which keeps only each row's ``source`` (see
``repro.exec.process``), so the parent's forecasts are bit-identical to
the inline engine's.  Exceptions cross as a
small ``{type, message, args}`` record and are rebuilt from an
allow-list of known service/backend error types; anything unrecognised
degrades to a ``RuntimeError`` that embeds the original type name.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - typing only
    from multiprocessing.connection import Connection

__all__ = [
    "error_from_wire",
    "error_to_wire",
    "recv_json",
    "send_json",
]


def send_json(conn: Connection, obj: dict) -> None:
    """Send one JSON frame (compact encoding, UTF-8)."""
    conn.send_bytes(json.dumps(obj, separators=(",", ":")).encode("utf-8"))


def recv_json(conn: Connection) -> dict:
    """Receive one JSON frame."""
    return json.loads(conn.recv_bytes().decode("utf-8"))


# ------------------------------------------------------------ exceptions
def _error_types() -> dict[str, type[BaseException]]:
    # Lazy: repro.service imports this package at module load.
    from ..faults.backend import BackendDeadError, FaultError, KernelFaultError
    from ..gpu.device import GpuMemoryError
    from ..service import SnapshotCorruptionError

    return {
        "SnapshotCorruptionError": SnapshotCorruptionError,
        "FaultError": FaultError,
        "KernelFaultError": KernelFaultError,
        "BackendDeadError": BackendDeadError,
        "GpuMemoryError": GpuMemoryError,
        "MemoryError": MemoryError,
        "KeyError": KeyError,
        "ValueError": ValueError,
        "RuntimeError": RuntimeError,
    }


def _json_safe_scalar(value: Any) -> bool:
    return value is None or isinstance(value, (bool, int, float, str))


def error_to_wire(error: BaseException) -> dict:
    """Flatten an exception to ``{type, message, args}``.

    ``args`` ships only when every element is a JSON-safe scalar (the
    common case for the service's own error types); otherwise the
    receiving side reconstructs from ``message`` alone.
    """
    args: list | None = list(error.args)
    if not all(_json_safe_scalar(a) for a in args):
        args = None
    return {"type": type(error).__name__, "message": str(error), "args": args}


def error_from_wire(record: dict) -> BaseException:
    """Rebuild the closest equivalent of a shipped exception."""
    types = _error_types()
    cls = types.get(record["type"])
    if cls is None:
        return RuntimeError(f"{record['type']}: {record['message']}")
    args = record.get("args")
    if args is not None:
        try:
            return cls(*args)
        except Exception:  # pragma: no cover - unusual signature
            pass
    return cls(record["message"])
