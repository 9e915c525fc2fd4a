"""Request-scoped trace context: one ``request_id`` per service entry.

Every :class:`~repro.service.PredictionService` entry point (``forecast``,
``forecast_all``, ``ingest``, ``ingest_many``, ``restore``) opens a
:func:`begin_request` scope.  The first scope on a call path *mints* a
fresh request id; nested scopes (a service call made from inside
another request) *adopt* the enclosing request instead, so one
user-visible request carries exactly one id no matter how many lanes
and ops it fans out into.

Worker lanes run on :class:`~concurrent.futures.ThreadPoolExecutor`
threads, which do **not** inherit the submitting thread's context —
each lane explicitly re-binds the parent's :class:`RequestContext` with
:func:`adopt`.  That is the cross-lane propagation half of the telemetry
layer: spans, event-log lines and metric exemplars recorded on any lane
all resolve :func:`current_request_id` to the same value the entry point
minted.

The module is dependency-free and always on: minting is one counter
increment plus one string format, orders of magnitude below a forecast,
so request ids exist even when :mod:`repro.obs.hooks` is disabled (the
:class:`~repro.service.Forecast.request_id` field is always populated).
"""

from __future__ import annotations

import itertools
import os
import time
from contextvars import ContextVar
from dataclasses import dataclass

__all__ = [
    "RequestContext",
    "RequestScope",
    "adopt",
    "begin_request",
    "current_request",
    "current_request_id",
    "new_request_id",
]

#: Per-process id sequence; the pid prefix keeps ids unique across the
#: process-per-shard future without any coordination.
_SEQUENCE = itertools.count(1)
_PROCESS_TAG = f"{os.getpid():x}"

#: The request bound to the current thread of execution (context-local,
#: so every thread — and every asyncio task, later — sees its own).
_CURRENT: ContextVar["RequestContext | None"] = ContextVar(
    "repro_request", default=None
)


def new_request_id() -> str:
    """A fresh process-unique request id (``req-<pid hex>-<seq>``)."""
    return f"req-{_PROCESS_TAG}-{next(_SEQUENCE):06d}"


@dataclass(frozen=True)
class RequestContext:
    """Identity of one in-flight service request.

    ``started_s`` is :func:`time.perf_counter` at mint time — the same
    monotonic clock spans use, so lane queue-wait can be attributed
    against the request start.
    """

    request_id: str
    entry_point: str
    started_s: float


def current_request() -> RequestContext | None:
    """The request bound to this thread (None outside any entry point)."""
    return _CURRENT.get()


def current_request_id() -> str | None:
    """Shorthand: the bound request's id, or None."""
    ctx = _CURRENT.get()
    return ctx.request_id if ctx is not None else None


class RequestScope:
    """Context manager binding one :class:`RequestContext` to the thread.

    ``minted`` is True when this scope created the context (it is the
    request's entry point and owns start/end accounting); False when it
    adopted an enclosing or cross-thread parent context.
    """

    __slots__ = ("context", "minted", "_token")

    def __init__(self, context: RequestContext, minted: bool) -> None:
        self.context = context
        self.minted = minted
        self._token = None

    @property
    def request_id(self) -> str:
        return self.context.request_id

    def __enter__(self) -> "RequestScope":
        # Nested scopes on the minting thread adopt the identical
        # context; re-binding it would be pure hot-path overhead (one
        # set/reset per inline lane), so only bind when the thread
        # does not already carry this exact context.
        if _CURRENT.get() is not self.context:
            self._token = _CURRENT.set(self.context)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self._token is not None:
            _CURRENT.reset(self._token)
            self._token = None
        return False


def begin_request(entry_point: str) -> RequestScope:
    """A scope for one service entry point.

    Mints a new request id unless the calling thread is already inside a
    request (nested service calls adopt the outer request).
    """
    existing = _CURRENT.get()
    if existing is not None:
        return RequestScope(existing, minted=False)
    context = RequestContext(
        request_id=new_request_id(),
        entry_point=entry_point,
        started_s=time.perf_counter(),
    )
    return RequestScope(context, minted=True)


def adopt(context: RequestContext) -> RequestScope:
    """A scope re-binding an existing request on another thread (lanes)."""
    return RequestScope(context, minted=False)
