"""Outside-in span tracer for the benchmark's traced runs.

The tracer wraps public functions of the ``repro`` layers from the
benchmark's side, at class or module level, and restores the originals
when the traced pass ends.  ``src/repro`` is never edited.

Instance-level wrappers would not survive: ``Board.restore_runtime_image``
deep-copies the runtime, which holds the kernel and the coverage tracer,
so wrappers live on the classes.  Functions the engine looks up as its
own module globals (``decode_coverage_buffer``, ``serialize_program``,
``open_session``) are wrapped in ``repro.fuzz.engine``'s namespace.

Every span has a name (its layer), a start, an end and a parent; all
spans of one traced pass share the tracer's ``run_id``.  Each thread keeps
its own span stack.  A layer's self time is its span time minus the time
of its child spans.  A call into a layer made while that same layer's
span is already open (``MemoryRegion.write`` inside ``write_u32``, or
inside ``Flash.write`` through ``super()``) runs unwrapped: it belongs to
the open span, and counting it twice would inflate the counts.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: Spans kept in memory for the span file; further spans still feed the
#: self-time and count totals but are not stored.
SPAN_CAP = 200_000

#: (span_id, parent_id, layer, start, end) — perf_counter seconds.
Span = Tuple[int, int, str, float, float]

#: Count hook: (self_or_first_arg, result) -> {count_name: increment}.
CountFn = Callable[[object, object], Dict[str, float]]


class _Frame:
    __slots__ = ("span_id", "layer", "start", "child")

    def __init__(self, span_id: int, layer: str, start: float):
        self.span_id = span_id
        self.layer = layer
        self.start = start
        self.child = 0.0


class SpanTracer:
    """Per-thread span stacks, self-time totals and layer counts."""

    def __init__(self, run_id: str,
                 clock: Callable[[], float] = time.perf_counter):
        self.run_id = run_id
        self.clock = clock
        self.self_s: Dict[str, float] = defaultdict(float)
        self.span_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        self.spans: List[Span] = []
        self.dropped = 0
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._patches: List[Tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _stack(self) -> List[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, stack: List[_Frame], layer: str) -> _Frame:
        frame = _Frame(next(self._ids), layer, self.clock())
        stack.append(frame)
        return frame

    def _close(self, stack: List[_Frame], frame: _Frame) -> float:
        end = self.clock()
        stack.pop()
        duration = end - frame.start
        parent = stack[-1] if stack else None
        if parent is not None:
            parent.child += duration
        with self._lock:
            self.self_s[frame.layer] += duration - frame.child
            self.span_s[frame.layer] += duration
            if len(self.spans) < SPAN_CAP:
                self.spans.append((frame.span_id,
                                   parent.span_id if parent else 0,
                                   frame.layer, frame.start, end))
            else:
                self.dropped += 1
        return duration

    @contextmanager
    def span(self, layer: str) -> Iterator[None]:
        """Open a span around benchmark-side code (roots, set-up)."""
        stack = self._stack()
        frame = self._open(stack, layer)
        try:
            yield
        finally:
            self._close(stack, frame)

    def count(self, name: str, amount: float = 1) -> None:
        """Add to a named count (thread-safe)."""
        with self._lock:
            self.counts[name] += amount

    # -- wrapping ------------------------------------------------------------

    def _wrapper(self, original: Callable, layer: str,
                 count: Optional[CountFn], time_as: str) -> Callable:
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack and stack[-1].layer == layer:
                return original(*args, **kwargs)
            frame = tracer._open(stack, layer)
            try:
                result = original(*args, **kwargs)
            finally:
                duration = tracer._close(stack, frame)
                if time_as:
                    tracer.count(time_as, duration)
            if count is not None:
                for name, amount in count(args[0] if args else None,
                                          result).items():
                    tracer.count(name, amount)
            return result

        traced.__wrapped_by_perfbench__ = True
        return traced

    def wrap(self, owner: object, attr: str, layer: str,
             count: Optional[CountFn] = None, time_as: str = "") -> None:
        """Replace ``owner.attr`` (a class or module) with a traced
        wrapper; for a class, every loaded subclass that overrides the
        method is wrapped as well.  ``time_as`` also adds each call's
        span time to that named count."""
        targets = [owner]
        if isinstance(owner, type):
            pending = list(owner.__subclasses__())
            while pending:
                cls = pending.pop()
                pending.extend(cls.__subclasses__())
                if attr in cls.__dict__:
                    targets.append(cls)
        for target in targets:
            original = target.__dict__[attr] if isinstance(target, type) \
                else getattr(target, attr)
            self._patches.append((target, attr, original))
            setattr(target, attr,
                    self._wrapper(original, layer, count, time_as))

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._patches:
            target, attr, original = self._patches.pop()
            setattr(target, attr, original)

    @property
    def installed(self) -> int:
        """Number of attributes currently replaced by wrappers."""
        return len(self._patches)

    # -- output --------------------------------------------------------------

    def write_spans(self, path: str) -> None:
        """Write the kept spans as JSON lines (header line first)."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"run_id": self.run_id,
                                     "spans": len(self.spans),
                                     "dropped": self.dropped}) + "\n")
            for span_id, parent, layer, start, end in self.spans:
                handle.write(json.dumps(
                    {"run_id": self.run_id, "id": span_id,
                     "parent": parent, "name": layer,
                     "start": round(start, 9), "end": round(end, 9)})
                    + "\n")


def _calls(name: str) -> CountFn:
    key = f"{name}.calls"
    return lambda _obj, _result: {key: 1}


def _emitted(obj, _result) -> Dict[str, float]:
    return {"obs.events": 1} if getattr(obj, "enabled", False) else {}


def install_layers(tracer: SpanTracer) -> None:
    """Wrap the public boundary of every ``repro`` layer the benchmark
    reports on (the layer table in ``perfbench/README.md``).

    Callers must reach ``build_firmware``, ``generate_validated_specs``
    and the report writers through their modules, so the wrappers are
    the functions they call."""
    from repro.agent.executor import AgentRuntime
    from repro.analysis import reach
    from repro.db.store import CampaignStore
    from repro.ddi.session import DebugSession
    from repro.farm.handles import WorkerHandle
    from repro.farm.state import CampaignState
    from repro.firmware import builder
    from repro.fuzz import engine as engine_mod
    from repro.fuzz.corpus import Corpus
    from repro.fuzz.feedback import CoverageMap
    from repro.fuzz.generator import ProgramGenerator
    from repro.fuzz.monitors import ExceptionMonitor, LogMonitor
    from repro.fuzz.mutator import ProgramMutator
    from repro.fuzz.restore import RecoveryLadder, StateRestoration
    from repro.fuzz.snapshot import SnapshotManager
    from repro.hw.board import Board
    from repro.hw.memory import MemoryRegion
    from repro.instrument.sancov import SancovTracer
    from repro.link.transport import DebugPortTransport
    from repro.obs import Observability, report
    from repro.obs.flight import FlightRecorder
    from repro.obs.metrics import Counter, Gauge, Histogram
    from repro.obs.timeseries import TimeSeriesSampler
    from repro.oses.common.kernel import EmbeddedKernel
    from repro.spec import llmgen

    wrap = tracer.wrap
    for attr in ("read", "write", "read_u32", "write_u32"):
        wrap(MemoryRegion, attr, "hw.memory", _calls("hw.memory"))
    for attr in ("capture_runtime_image", "restore_runtime_image"):
        wrap(Board, attr, "hw.board", _calls("hw.board"))
    wrap(SancovTracer, "hit", "instrument.tracer",
         lambda _o, _r: {"instrument.tracer.hits": 1})
    wrap(engine_mod, "decode_coverage_buffer", "instrument.decode",
         lambda _o, result: {"instrument.decode.records": len(result)})
    wrap(EmbeddedKernel, "invoke", "oses", _calls("oses"))
    wrap(AgentRuntime, "step", "agent",
         lambda _o, _r: {"agent.steps": 1})
    wrap(engine_mod, "serialize_program", "agent")
    wrap(DebugPortTransport, "transact", "link")
    wrap(DebugSession, "drain_uart", "ddi")
    wrap(engine_mod, "open_session", "ddi", time_as="ddi.attach_s")
    wrap(ProgramGenerator, "generate", "fuzz.generator",
         _calls("fuzz.generator"))
    for attr in ("mutate", "splice"):
        wrap(ProgramMutator, attr, "fuzz.mutator", _calls("fuzz.mutator"))
    for attr in ("add", "pick"):
        wrap(Corpus, attr, "fuzz.corpus", _calls("fuzz.corpus"))
    wrap(CoverageMap, "add_new", "fuzz.feedback",
         lambda _o, result: {"fuzz.feedback.fresh": len(result)})
    wrap(LogMonitor, "scan", "fuzz.monitors", _calls("fuzz.monitors"))
    wrap(ExceptionMonitor, "capture", "fuzz.monitors",
         _calls("fuzz.monitors"))
    for attr in ("capture", "restore"):
        wrap(SnapshotManager, attr, "fuzz.snapshot")
    wrap(RecoveryLadder, "recover", "fuzz.restore", _calls("fuzz.restore"))
    wrap(StateRestoration, "restore", "fuzz.restore",
         _calls("fuzz.restore"))
    wrap(WorkerHandle, "join_start", "farm", time_as="farm.start_s")
    wrap(WorkerHandle, "join_epoch", "farm", time_as="farm.barrier_wait_s")
    for attr in ("push", "pull", "merge_edges"):
        wrap(CampaignState, attr, "farm")
    for attr in ("record_epoch", "checkpoint"):
        wrap(CampaignStore, attr, "db")
    wrap(Observability, "emit", "obs", _emitted)
    for attr in ("counter", "gauge", "histogram"):
        wrap(Observability, attr, "obs")
    wrap(Counter, "inc", "obs")
    wrap(Gauge, "set", "obs")
    wrap(Histogram, "record", "obs")
    wrap(TimeSeriesSampler, "maybe_sample", "obs")
    wrap(FlightRecorder, "dump", "obs")
    for attr in ("collect_run_data", "write_run_artifacts"):
        wrap(report, attr, "obs")
    wrap(builder, "build_firmware", "firmware")
    wrap(llmgen, "generate_validated_specs", "spec")
    wrap(reach, "reachable_edge_universe", "analysis")
