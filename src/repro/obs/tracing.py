"""Lightweight pipeline tracing: nested spans with time attribution.

A :class:`Span` measures one stage of the request path (``forecast``,
``predict``, ``search``, ``dtw_refine``, ``gp_fit`` ...).  Spans nest via
a thread-local stack managed by the :class:`Tracer`; entering a span
while another is open makes it a child, so one ``forecast()`` call
produces a tree mirroring the pipeline of the paper's Fig. 3.

Each span records

* **wall-clock** — ``time.perf_counter`` delta between enter and exit,
* **simulated GPU time** — when constructed with a device, the delta of
  its ``elapsed_s`` (any :class:`~repro.backend.base.ComputeBackend`
  or cost model) across the span, i.e. the
  simulated kernel seconds *attributable to this stage* (children's
  device time is included in the parent's, exactly like wall-clock).

Spans are context managers::

    tracer = Tracer()
    with tracer.span("search", device=device):
        with tracer.span("lower_bounds", device=device):
            ...

Completed root spans are retained on ``tracer.last_root`` for
``trace_last_request()``-style APIs.  The module is dependency-free and
never touches the global enable switch — :mod:`repro.obs.hooks` decides
*whether* to trace; this module only knows *how*.

Cross-thread trees: a worker lane opens a *detached* span
(:meth:`Tracer.detached_span`) — it roots the lane thread's own stack
(so the lane's nested spans parent correctly) but never claims
``last_root`` when it closes.  After the lanes join, the parent thread
attaches each completed lane tree under its open root with
:meth:`Span.adopt`, in deterministic lane order, yielding exactly one
connected tree per request regardless of worker count.  Every span also
records ``start_s`` (``perf_counter`` at enter), which is what the
Chrome trace-event exporter (:mod:`repro.obs.chrome`) lays tracks out
with.
"""

from __future__ import annotations

import threading
import time

__all__ = ["Span", "Tracer", "format_span_tree"]


class Span:
    """One timed stage; also the context manager that times it."""

    __slots__ = (
        "name", "attrs", "children", "wall_s", "gpu_sim_s", "start_s",
        "_tracer", "_device", "_t0", "_gpu0", "_detached",
    )

    def __init__(
        self, tracer: "Tracer", name: str, device=None, detached: bool = False
    ) -> None:
        self.name = name
        self.attrs: dict[str, object] = {}
        self.children: list[Span] = []
        self.wall_s = 0.0
        self.gpu_sim_s = 0.0
        #: ``perf_counter`` when the span was entered (0.0 before enter);
        #: the trace clock the Chrome exporter aligns tracks on.
        self.start_s = 0.0
        self._tracer = tracer
        self._device = device
        self._t0 = 0.0
        self._gpu0 = 0.0
        self._detached = detached

    # -------------------------------------------------------------- context
    def __enter__(self) -> "Span":
        self._tracer._push(self)
        if self._device is not None:
            self._gpu0 = self._device.elapsed_s
        self._t0 = self.start_s = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.wall_s = time.perf_counter() - self._t0
        if self._device is not None:
            self.gpu_sim_s = self._device.elapsed_s - self._gpu0
        self._tracer._pop(self)
        return False

    # ----------------------------------------------------------- adoption
    def adopt(self, child: "Span") -> None:
        """Attach a *completed* detached span as a child of this one.

        This is how cross-thread trees connect: worker lanes build their
        own detached subtrees, and the parent thread adopts them after
        the lanes join — so the append races with nothing and the child
        order is whatever the caller chose (lane order, typically).
        """
        self.children.append(child)

    # ---------------------------------------------------------------- views
    def find(self, name: str) -> "Span | None":
        """Depth-first search for the first descendant named ``name``."""
        for child in self.children:
            if child.name == name:
                return child
            found = child.find(name)
            if found is not None:
                return found
        return None

    def find_all(self, name: str) -> list["Span"]:
        """Every descendant named ``name``, depth-first order."""
        out = []
        for child in self.children:
            if child.name == name:
                out.append(child)
            out.extend(child.find_all(name))
        return out

    def as_dict(self) -> dict:
        """JSON-friendly nested record."""
        return {
            "name": self.name,
            "start_s": self.start_s,
            "wall_s": self.wall_s,
            "gpu_sim_s": self.gpu_sim_s,
            "attrs": dict(self.attrs),
            "children": [child.as_dict() for child in self.children],
        }

    @classmethod
    def from_dict(cls, record: dict) -> "Span":
        """Rebuild a completed span tree from :meth:`as_dict` output.

        This is how lane subtrees cross the process boundary: a shard
        worker serialises its detached ``lane`` span, the parent rebuilds
        it here and :meth:`adopt`\\ s it under the request root.  The
        result is a *completed* span — detached, tracer-less, usable for
        :meth:`find` / :meth:`as_dict` / Chrome export but not re-enterable.
        ``start_s`` stays comparable across processes because both sides
        read the same monotonic ``perf_counter`` clock.
        """
        span = cls.__new__(cls)
        span.name = str(record["name"])
        span.attrs = dict(record.get("attrs", {}))
        span.children = [
            cls.from_dict(child) for child in record.get("children", [])
        ]
        span.wall_s = float(record.get("wall_s", 0.0))
        span.gpu_sim_s = float(record.get("gpu_sim_s", 0.0))
        span.start_s = float(record.get("start_s", 0.0))
        span._tracer = None
        span._device = None
        span._t0 = 0.0
        span._gpu0 = 0.0
        span._detached = True
        return span

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Span({self.name!r}, wall={self.wall_s:.6f}s, "
            f"gpu={self.gpu_sim_s:.6f}s, children={len(self.children)})"
        )


class Tracer:
    """Thread-local span stack + last-completed-root retention.

    Every thread nests spans on its own stack, so concurrent serving
    lanes each build their own tree and never parent a span under
    another thread's open span.  ``last_root`` is process-wide — under
    concurrency it is whichever root completed last (its write is
    lock-guarded, so the reference is always a *complete* tree)."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._root_lock = threading.Lock()
        self.last_root: Span | None = None

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, device=None) -> Span:
        """A new span; nests under the currently open span on this thread."""
        return Span(self, name, device)

    def detached_span(self, name: str, device=None) -> Span:
        """A span for a worker lane: roots its own thread's stack but
        never claims ``last_root`` — the parent thread attaches the
        completed subtree with :meth:`Span.adopt` after the lane joins."""
        return Span(self, name, device, detached=True)

    def current(self) -> Span | None:
        """The innermost open span on this thread (None outside spans)."""
        stack = self._stack()
        return stack[-1] if stack else None

    def _push(self, span: Span) -> None:
        stack = self._stack()
        if stack:
            stack[-1].children.append(span)
        stack.append(span)

    def _pop(self, span: Span) -> None:
        stack = self._stack()
        # Tolerate exception-driven unwinds: pop through to this span.
        while stack:
            top = stack.pop()
            if top is span:
                break
        if not stack and not span._detached:
            with self._root_lock:
                self.last_root = span

    def reset(self) -> None:
        """Forget the retained root and this thread's open stack.

        Other threads' open stacks are untouched (they are thread-local
        by design); callers resetting between experiments should do so
        from a quiesced state."""
        with self._root_lock:
            self.last_root = None
        self._local.stack = []


def format_span_tree(span: Span, indent: int = 0) -> str:
    """Human-readable tree: name, wall seconds, simulated GPU seconds."""
    attrs = ""
    if span.attrs:
        inner = ", ".join(f"{k}={v}" for k, v in sorted(span.attrs.items()))
        attrs = f"  [{inner}]"
    line = (
        f"{'  ' * indent}{span.name:<24s} "
        f"wall={span.wall_s * 1e3:8.3f}ms  gpu={span.gpu_sim_s * 1e3:8.3f}ms"
        f"{attrs}"
    )
    lines = [line]
    for child in span.children:
        lines.append(format_span_tree(child, indent + 1))
    return "\n".join(lines)
