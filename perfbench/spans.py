"""Layer-boundary tracing for the wall-clock benchmark.

The program under test is never edited: a :class:`Tracer` wraps the
public functions at each layer boundary from outside (class attributes
are swapped for timing wrappers and restored by :meth:`Tracer.uninstall`).
Every call becomes a span holding its name, start, end, parent and the
virtual time its session clock advanced.  CPython collector pauses, seen
through ``gc.callbacks``, become ``runtime.gc`` spans nested in whatever
span they interrupted, so a collection is charged to the collector and
not to the layer that happened to allocate.

A span's *self* time is its duration minus the durations of its direct
children (calls run on one thread, so children never overlap).
"""

import functools
import gc
import json
import time

from repro.access.registry import DesktopRegistry
from repro.checkpoint.engine import CheckpointEngine
from repro.checkpoint.image import CheckpointImage
from repro.checkpoint.restore import ReviveManager
from repro.checkpoint.storage import CheckpointStorage, ShardedPageCAS
from repro.common.serial import RecordWriter
from repro.desktop.dejaview import DejaView
from repro.display.driver import VirtualDisplayDriver
from repro.display.playback import PlaybackEngine
from repro.display.recorder import DisplayRecorder
from repro.fs.lfs import LogStructuredFS
from repro.index.database import TemporalTextDatabase
from repro.index.search import SearchEngine
from repro.replay.tap import RecordingTap, VerifyingTap
from repro.server.fleet import Fleet
from repro.workloads import scenarios  # noqa: F401  (fills SCENARIOS)
from repro.workloads.generator import SCENARIOS

TAP_METHODS = ("clock", "signal", "socket", "sched", "rng", "input_event",
               "anchor")

#: Span name -> the (class, method) pairs it times.  ``workloads.unit`` is
#: filled in per scenario class at install time.
LAYER_SPANS = {
    "workloads.unit": (),
    "desktop.tick": ((DejaView, "tick"),),
    "desktop.take_me_back": ((DejaView, "take_me_back"),),
    "display.flush": ((VirtualDisplayDriver, "flush"),),
    "display.record": ((DisplayRecorder, "handle_commands"),),
    "display.seek": ((PlaybackEngine, "seek"),),
    "access.emit": ((DesktopRegistry, "emit"),),
    "index.ingest": ((TemporalTextDatabase, "open_occurrence"),
                     (TemporalTextDatabase, "close_occurrence")),
    "index.search": ((SearchEngine, "search"),),
    "checkpoint.take": ((CheckpointEngine, "checkpoint"),),
    "checkpoint.serialize": ((CheckpointImage, "serialize"),),
    "checkpoint.store": ((CheckpointStorage, "store"),),
    "checkpoint.cas_commit": ((ShardedPageCAS, "commit_page"),),
    "checkpoint.cas_flush": ((ShardedPageCAS, "flush_shard"),),
    "checkpoint.load": ((CheckpointStorage, "load"),),
    "checkpoint.revive": ((ReviveManager, "revive"),),
    "checkpoint.revive_thinned": ((ReviveManager, "revive_thinned"),),
    "checkpoint.thin": ((DejaView, "thin_checkpoints"),),
    "fs.sync": ((LogStructuredFS, "sync"),),
    "fs.snapshot": ((LogStructuredFS, "snapshot"),),
    "replay.tap": tuple((cls, name) for cls in (RecordingTap, VerifyingTap)
                        for name in TAP_METHODS),
    "common.record_write": ((RecordWriter, "write"),),
    "server.step": ((Fleet, "step"),),
    "server.drain": ((Fleet, "drain_writeback"),),
    "server.revive": ((Fleet, "revive"),),
}

GC_SPAN = "runtime.gc"


def _clock_of(obj):
    """The virtual clock a wrapped object charges, when it exposes one."""
    for holder in (obj, getattr(obj, "session", None)):
        clock = getattr(holder, "clock", None)
        if hasattr(clock, "now_us"):
            return clock
    return None


def _scenario_classes():
    return sorted({cls for scenario in SCENARIOS.values()
                   for cls in scenario.__mro__ if "unit" in cls.__dict__},
                  key=lambda cls: cls.__qualname__)


class Tracer:
    """Spans kept in memory: ``[name, start_s, end_s, parent, virtual_us]``
    with ``parent`` the index of the enclosing span (-1 for a root)."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []
        self._gc_open = None

    # -- installation -------------------------------------------------- #

    def install(self):
        targets = dict(LAYER_SPANS)
        targets["workloads.unit"] = tuple(
            (cls, "unit") for cls in _scenario_classes())
        for name, pairs in targets.items():
            for cls, method in pairs:
                original = cls.__dict__.get(method)
                if original is None:  # inherited: wrap the resolved one
                    original = getattr(cls, method)
                self._saved.append((cls, method, cls.__dict__.get(method)))
                setattr(cls, method, self._wrap(name, original))
        gc.callbacks.append(self._on_gc)

    def uninstall(self):
        gc.callbacks.remove(self._on_gc)
        for cls, method, original in reversed(self._saved):
            if original is None:
                delattr(cls, method)
            else:
                setattr(cls, method, original)
        self._saved = []

    def _wrap(self, name, original):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(original)
        def traced(obj, *args, **kwargs):
            vclock = _clock_of(obj)
            v0 = vclock.now_us if vclock is not None else 0
            span = [name, clock(), None, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                return original(obj, *args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                if vclock is not None:
                    span[4] = vclock.now_us - v0

        return traced

    def _on_gc(self, phase, _info):
        # Only collections the program triggers, inside a layer span; the
        # benchmark's own gc.collect() between rounds runs outside any.
        if phase == "start" and self._stack:
            self._gc_open = [GC_SPAN, time.perf_counter(), None,
                             self._stack[-1], 0]
        elif self._gc_open is not None:
            self._gc_open[2] = time.perf_counter()
            self.spans.append(self._gc_open)
            self._gc_open = None

    # -- analysis ------------------------------------------------------ #

    def summary(self):
        """Per span name: calls, total and self wall seconds, virtual µs.

        Also checks the accounting: every span closed, and for every root
        its subtree's self times add back up to its wall time.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        for span in spans:
            if span[2] is None:
                raise AssertionError("span %s never closed" % span[0])
            if span[3] >= 0:
                child_time[span[3]] += span[2] - span[1]
        stats = {}
        subtree_self = [0.0] * len(spans)
        for index, span in enumerate(spans):
            duration = span[2] - span[1]
            own = duration - child_time[index]
            entry = stats.setdefault(span[0], {
                "calls": 0, "total_s": 0.0, "self_s": 0.0, "virtual_us": 0})
            entry["calls"] += 1
            entry["total_s"] += duration
            entry["self_s"] += own
            entry["virtual_us"] += span[4]
            subtree_self[index] = own
        # Children are appended after their parent (GC spans on close, but
        # their parent is still open then), so a reverse sweep folds every
        # subtree into its root.
        roots_wall = roots_self = 0.0
        for index in range(len(spans) - 1, -1, -1):
            parent = spans[index][3]
            if parent >= 0:
                subtree_self[parent] += subtree_self[index]
            else:
                roots_wall += spans[index][2] - spans[index][1]
                roots_self += subtree_self[index]
        accounted = abs(roots_wall - roots_self) <= 1e-6 * max(1.0, roots_wall)
        return stats, roots_wall, accounted

    def children_of(self, name, child_name):
        """Calls of ``child_name`` anywhere below each ``name`` span, in
        order of the ``name`` spans."""
        spans = self.spans
        owner = {}
        counts = {}
        for index, span in enumerate(spans):
            parent = span[3]
            top = owner.get(parent) if parent >= 0 else None
            if span[0] == name:
                top = index
                counts[index] = 0
            owner[index] = top
            if top is not None and span[0] == child_name and top != index:
                counts[top] += 1
        return [counts[index] for index in sorted(counts)]

    def dump(self, path):
        """Write every span as one JSON line (times in ns from the first
        span's start)."""
        base = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for index, span in enumerate(self.spans):
                fh.write(json.dumps([
                    index, span[0], int((span[1] - base) * 1e9),
                    int((span[2] - base) * 1e9), span[3], span[4],
                ]) + "\n")
