"""The three benchmark workloads: desktop_record, fleet_serve and recall.

Each is one client in a closed loop on one thread, driving the program's
public API in its shipped configuration.  A workload run is a sequence of
*rounds*, each with inputs drawn from a seed derived from the run's seed.

* ``desktop_record`` — a round records one seeded desktop session (the
  section 5.1.3 policy, the scenario's default recording config, and a
  replay log recording as under ``repro replay``).
* ``fleet_serve`` — a round builds the Table-1 fleet and runs it to
  completion, forking branches from stored checkpoints of running members
  at seeded, evenly spaced points.
* ``recall`` — set-up records and thins one seeded desktop session; a
  round is a seeded mix of seeks, searches, take-me-backs to stored
  instants and take-me-backs to thinned instants.

Every end-to-end metric is reported on every workload.  The recording
metrics of ``recall`` come from the recordings its set-up makes; the
read metrics of ``desktop_record`` and ``fleet_serve`` come from a
*read-back* pass over each round's recording, after its timed part (a
fleet's revive is :meth:`Fleet.revive`, a fork).
"""

import gc
import random
import time
from collections import defaultdict

import numpy as np

from repro.checkpoint.verify import verify_chain
from repro.common.clock import VirtualClock
from repro.common.errors import DejaViewError
from repro.desktop.dejaview import DejaView
from repro.desktop.session import DesktopSession
from repro.display.playback import PlaybackEngine
from repro.index.query import Query
from repro.index.search import SearchEngine
from repro.replay import RecordingTap
from repro.replay.replayer import anchor_index
from repro.workloads.desktop_wl import DesktopWorkload
from repro.workloads.fleet_wl import STORM_MIX, build_fleet

now = time.perf_counter

#: Desktop session length per desktop_record round (simulated seconds).
DESKTOP_UNITS = 200
#: Length of the recording recall's set-up makes and thins.
RECALL_UNITS = 200
#: Activity seed of that recording: the desktop scenario's own.  Recall
#: reads back one fixed recording, so its read figures compare like with
#: like; the run seed sets which instants, words and times it reads and
#: in what order.  (desktop_record is where activity varies.)
RECALL_RECORDING_SEED = 16
#: Recall set-ups per run (setup_s is their median).
RECALL_SETUPS = 3
#: Minimum set-up samples per run for the other workloads.
MIN_SETUPS = 3
#: Minimum rounds per run, so every percentile has its samples.
MIN_ROUNDS = 4

FLEET_MEMBERS = 16
FLEET_UNITS_SCALE = 4
#: Branches forked mid-run per fleet round, and the units each runs.
FLEET_FORKS = 8
FLEET_BRANCH_UNITS = 4

#: Recall round: seeks, searches, stored and thinned take-me-backs.
RECALL_ROUND = {"seek": 70, "search": 70, "revive": 50, "thinned": 2}
#: Read-back pass after each timed round of the recording workloads.
READBACK = {"seek": 70, "search": 70, "revive": 50}
#: Every Nth seek or search is checked against a fresh, cold engine.
ORACLE_EVERY = 4
#: Searches ``i`` with ``i % 8`` in this set skip rendering screenshots;
#: the rest render, and half of each kind is windowed.  (A half/half
#: render mix would put the median between the two latency modes, where
#: it swings from run to run.)
UNRENDERED = (0, 5)
#: Results a rendered search shows (and renders): one results page.
RESULTS_PAGE = 10
#: Share of seeks aimed exactly at a checkpoint instant.
CHECKPOINT_SEEK_EVERY = 4


class Results:
    """Samples, counts and oracle verdicts gathered during one run."""

    def __init__(self):
        self.samples = defaultdict(list)
        self.setup_s = []
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.recorded_s = 0.0
        self.record_wall_s = 0.0
        self.recordings = 0
        self.stored_bytes = 0
        self.stored_recorded_s = 0.0
        self.round_wall_s = []
        self.details = {}

    def check(self, ok, what):
        """One operation attempted; ``ok`` is its oracle's verdict."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)

    def recorded(self, recorded_s, wall_s, stored_bytes):
        self.recorded_s += recorded_s
        self.record_wall_s += wall_s
        self.recordings += 1
        if self.recordings <= MIN_ROUNDS:
            # Only the first recordings, so the figure does not depend on
            # how many rounds fit in the time budget.
            self.stored_bytes += stored_bytes
            self.stored_recorded_s += recorded_s


class TickTimer:
    """Times every :meth:`DejaView.tick` that took a checkpoint: how long
    the recorder held the desktop.  Active only while a recording phase
    runs, so ticks re-executed by a replay-revive are not counted."""

    def __init__(self):
        self.active = False
        self.samples = []
        self._original = None

    def install(self):
        original = self._original = DejaView.tick
        timer = self

        def tick(dejaview, *args, **kwargs):
            start = now()
            report = original(dejaview, *args, **kwargs)
            if timer.active and report.checkpointed:
                timer.samples.append(now() - start)
            return report

        DejaView.tick = tick

    def uninstall(self):
        DejaView.tick = self._original


# ---------------------------------------------------------------------- #
# Seeded desktop recordings


class SeededDesktop(DesktopWorkload):
    """The desktop scenario with its activity generator reseeded."""

    def __init__(self, seed):
        self.seed = seed

    def setup(self, run):
        super().setup(run)
        run.rng = np.random.default_rng(self.seed)


def _desktop_stack(seed, tap):
    workload = SeededDesktop(seed)
    session = DesktopSession(name="desktop", replay_tap=tap)
    dejaview = DejaView(session, workload.default_recording())
    return workload, session, dejaview


def replay_driver_factory(meta, capture):
    """Rebuild a recording's seeded script for replay-revive."""
    def driver(tap):
        workload, session, dejaview = _desktop_stack(meta["seed"], tap)
        capture["session"] = session
        capture["dejaview"] = dejaview
        workload.run(units=meta["units"], session=session,
                     dejaview=dejaview)
        tap.close(session.clock.now_us)
    return driver


class DesktopRecording:
    """One seeded desktop session recording with a replay log, as
    :func:`repro.replay.replayer.record_scenario` records one."""

    def __init__(self, seed, units):
        self.tap = RecordingTap(meta={"script": "perfbench.desktop",
                                      "seed": seed, "units": units})
        workload, self.session, self.dejaview = _desktop_stack(seed, self.tap)
        self.dejaview.reviver.replay_driver_factory = replay_driver_factory
        self.run, self._steps = workload.start(
            units=units, session=self.session, dejaview=self.dejaview)

    def record(self):
        for _ in self._steps:
            pass
        self.tap.close(self.session.clock.now_us)

    def stored_bytes(self):
        return stored_bytes([self.dejaview], self.dejaview.storage.cas,
                            len(self.tap.getvalue()))


def stored_bytes(dejaviews, cas, replay_log_bytes=0):
    """Bytes a recording keeps: display log and keyframes, index, page
    store physical bytes plus each owner's manifests, LFS log, replay
    log."""
    total = cas.total_uncompressed_bytes + replay_log_bytes
    for dv in dejaviews:
        pages_raw, _ = cas.owner_logical_totals(dv.storage.owner)
        total += dv.storage.total_uncompressed_bytes - pages_raw
        total += dv.recorder.total_nbytes + dv.database.approximate_bytes()
        total += dv.session.fs.log_bytes
    return total


def _record_desktop(seed, units, results, timer):
    """Set up and record one desktop session; returns it and the wall
    seconds the recording took."""
    start = now()
    recording = DesktopRecording(seed, units)
    built = now()
    results.setup_s.append(built - start)
    timer.active = True
    try:
        recording.record()
    finally:
        timer.active = False
    wall = now() - built
    results.recorded(recording.run.duration_seconds, wall,
                     recording.stored_bytes())
    results.attempted += units
    return recording, wall


# ---------------------------------------------------------------------- #
# Read operations and their oracles


def _release():
    """Collect the previous round's sessions before the next is built
    (outside every timed region), so rounds do not stack their memory."""
    gc.collect()


def spread_evenly(items, n, phase):
    """``n`` picks from ``items`` at equal strides, shifted by ``phase``
    (a fraction in [0, 1))."""
    return [items[int((i + phase) * len(items) / n) % len(items)]
            for i in range(n)]


def _timed(results, key, fn, *args, **kwargs):
    start = now()
    value = fn(*args, **kwargs)
    results.samples[key].append((now() - start) * 1e3)
    return value


class RecallTarget:
    """One recording's read side: its instants, vocabulary and oracles."""

    def __init__(self, dejaview, anchors=None, thinned=()):
        self.dejaview = dejaview
        self.anchors = anchors or {}
        self.record = dejaview.display_record()
        self.clip_us = dejaview.session.clock.now_us
        self.first_us = self.record.timeline.first_time_us
        self.vocabulary = [w for w in dejaview.database.vocabulary()
                           if len(w) > 2]
        storage = dejaview.storage
        history = dejaview.engine.history
        self.checkpoints = [(r.checkpoint_id, r.timestamp_us)
                            for r in history
                            if r.timestamp_us >= self.first_us]
        thinned = set(thinned)
        self.thinned = [(cid, ts) for cid, ts in self.checkpoints
                        if cid in thinned]
        stored = [(cid, ts) for cid, ts in self.checkpoints
                  if cid in storage and cid not in thinned]
        # The thinning defect (see README): a surviving checkpoint whose
        # pages still live in a tombstoned image cannot revive, and
        # take_me_back silently replay-revives an older instant instead.
        # Stored revives are aimed around these instants.
        self.dangling = [cid for cid, _ts in stored if thinned and any(
            owner in thinned for owner in
            storage.load(cid, cached=True).page_locations.values())]
        self.stored = [(cid, ts) for cid, ts in stored
                       if cid not in self.dangling]

    def plan(self, rng, counts, phase):
        """A shuffled list of read operations.  Targets are spread evenly
        over the recording, shifted by ``phase`` (a fraction in [0, 1)),
        and ``rng`` sets their order."""
        ops = []
        span = max(1, self.clip_us - self.first_us)
        n = counts.get("seek", 0)
        instants = iter(spread_evenly(self.checkpoints, n, phase)) \
            if self.checkpoints else None
        for i in range(n):
            if i % CHECKPOINT_SEEK_EVERY == 0 and instants is not None:
                cid, ts = next(instants)
                ops.append(("seek", ts, cid, False))
            else:
                time_us = self.first_us + int((i + phase) * span / n)
                ops.append(("seek", time_us, None, i % ORACLE_EVERY == 1))
        n = counts.get("search", 0)
        words = spread_evenly(self.vocabulary, n, phase) if n else ()
        for i, word in enumerate(words):
            start_us = self.first_us + span // 2 if i % 2 else None
            ops.append(("search", Query.keywords(word, start_us=start_us),
                        i % 8 not in UNRENDERED, i % ORACLE_EVERY == 0))
        for kind, items in (("revive", self.stored),
                            ("thinned", self.thinned)):
            n = counts.get(kind, 0)
            ops.extend((kind,) + item for item in
                       (spread_evenly(items, n, phase) if n else ()))
        rng.shuffle(ops)
        return ops

    def execute(self, ops, results):
        """Run planned operations, timing each and checking its oracle.
        Fresh engines per call, so every round starts equally cold."""
        dv = self.dejaview
        playback = dv.playback_engine()
        search = dv.search_engine()
        fallbacks = dv.telemetry.metrics.counter("revive.fallbacks")
        for op in ops:
            kind = op[0]
            try:
                if kind == "seek":
                    self._seek(playback, op, results)
                elif kind == "search":
                    self._search(search, op, results)
                elif kind == "revive":
                    before = fallbacks.value
                    revived = _timed(results, "revive_ms", dv.take_me_back,
                                     op[2])
                    expected = dv.checkpoint_before(op[2]).checkpoint_id
                    results.check(revived.checkpoint_id == expected
                                  and not revived.replayed
                                  and fallbacks.value == before,
                                  "take_me_back to stored checkpoint %d "
                                  "revived %d" % (op[1],
                                                  revived.checkpoint_id))
                else:
                    revived = _timed(results, "replay_revive_ms",
                                     dv.take_me_back, op[2])
                    # Desktop units are paced one per simulated second.
                    results.samples["replay_distance_units"].append(
                        revived.replay_us / 1e6)
                    results.check(revived.replayed
                                  and revived.checkpoint_id == op[1],
                                  "take_me_back to thinned checkpoint %d "
                                  "revived %d" % (op[1],
                                                  revived.checkpoint_id))
            except DejaViewError as exc:
                results.check(False, "%s %r raised %r" % (kind, op[1:], exc))

    def _seek(self, playback, op, results):
        _kind, time_us, checkpoint_id, cold_check = op
        fb, _stats = _timed(results, "seek_ms", playback.seek, time_us)
        if checkpoint_id in self.anchors:
            expected = self.anchors[checkpoint_id]["framebuffer_sha1"]
            results.check(fb.checksum() == expected,
                          "seek to checkpoint %d instant" % checkpoint_id)
        elif cold_check or checkpoint_id is not None:
            cold = PlaybackEngine(self.record, clock=VirtualClock(),
                                  cache_capacity=0)
            results.check(fb.checksum() == cold.seek(time_us)[0].checksum(),
                          "seek to %d differs from a cold engine" % time_us)
        else:
            results.check(True, "seek")

    def _search(self, engine, op, results):
        _kind, query, render, fresh_check = op
        limit = RESULTS_PAGE if render else None
        found = _timed(results, "search_ms", engine.search, query,
                       render=render, limit=limit)
        if not fresh_check:
            results.check(True, "search")
            return
        fresh = SearchEngine(self.dejaview.database, playback=None,
                             clock=self.dejaview.session.clock)
        again = fresh.search(query, render=False, limit=limit)
        results.check(self._clipped(found) == self._clipped(again),
                      "search %r differs from a cold engine" % (query,))

    def _clipped(self, found):
        # Open occurrences end "now", which search itself advances:
        # compare with interval ends clipped to the recording's end.
        return [(r.timestamp_us, min(r.substream.end_us, self.clip_us))
                for r in found]


# ---------------------------------------------------------------------- #
# Workloads


class Workload:
    """A workload run: ``setup`` (recall only), then ``round`` repeated.

    Round ``i`` draws its inputs from :meth:`round_seed`, a function of the
    run's seed: averaging a run over several inputs keeps its figures
    steady from seed to seed, and the same seed still gives the same
    inputs.  The recording workloads follow each timed round with an
    untimed-by-the-throughput read-back of what it recorded."""

    name = None

    def __init__(self, seed, results, timer):
        self.seed = seed
        self.results = results
        self.timer = timer

    def round_seed(self, index):
        return self.seed * 1_000_003 + index

    @staticmethod
    def phase(index):
        """Where round ``index``'s read targets fall between the evenly
        spaced ones: golden-ratio steps, so rounds cover the recording
        without depending on the seed."""
        return (index * 0.6180339887498949) % 1.0

    def setup(self):
        """Preparation before the rounds (recall only)."""

    def round(self, index):
        """One round of measured work; returns its measured wall seconds."""
        raise NotImplementedError

    def finish(self):
        """Extra set-up samples, so setup_s is a median of several."""

    def dejaviews(self):
        """The recording sessions of the latest round (trace counts)."""
        return []


class DesktopRecord(Workload):
    name = "desktop_record"

    def __init__(self, *args):
        super().__init__(*args)
        self.last = None

    def round(self, index):
        self.last = None
        _release()
        recording, wall = _record_desktop(self.round_seed(index),
                                          DESKTOP_UNITS, self.results,
                                          self.timer)
        report = verify_chain(recording.dejaview.storage,
                              recording.session.fsstore)
        self.results.check(report.ok, "verify_chain: %s" % (
            report.issues[:3],))
        target = RecallTarget(recording.dejaview, anchors=anchor_index(
            recording.tap.getvalue()))
        target.execute(target.plan(random.Random(self.round_seed(index)),
                                   READBACK, self.phase(index)),
                       self.results)
        self.last = recording
        return wall

    def finish(self):
        self.last = None
        while len(self.results.setup_s) < MIN_SETUPS:
            _release()
            start = now()
            DesktopRecording(self.round_seed(0), DESKTOP_UNITS)
            self.results.setup_s.append(now() - start)

    def dejaviews(self):
        return [self.last.dejaview] if self.last else []


class FleetServe(Workload):
    name = "fleet_serve"

    def __init__(self, *args):
        super().__init__(*args)
        self.fleet = None

    def _build(self, seed):
        start = now()
        # Read-back branches are deleted one by one: one slot suffices.
        fleet = build_fleet(FLEET_MEMBERS, seed=seed,
                            units_scale=FLEET_UNITS_SCALE,
                            max_sessions=FLEET_MEMBERS + FLEET_FORKS + 1)
        self.results.setup_s.append(now() - start)
        return fleet

    def round(self, index):
        self.fleet = None
        _release()
        seed = self.round_seed(index)
        fleet = self._build(seed)
        rng = random.Random(seed)
        total = sum(m.run.units for m in fleet.members())
        spacing = total // (FLEET_FORKS + 1)
        offset = rng.randrange(max(1, spacing // 2))
        fork_steps = {offset + spacing * (i + 1) for i in range(FLEET_FORKS)}
        results = self.results
        start = now()
        self.timer.active = True
        try:
            steps = forks = 0
            while fleet.runnable():
                fleet.step()
                steps += 1
                if steps in fork_steps:
                    # Round-robin over the running members, from each
                    # one's latest checkpoint.
                    running = [m for m in fleet.members() if m.runnable
                               and not m.is_branch
                               and m.dejaview.engine.history]
                    parent = running[forks % len(running)]
                    self._fork(fleet, parent,
                               parent.dejaview.engine.history[-1],
                               STORM_MIX[forks % len(STORM_MIX)],
                               FLEET_BRANCH_UNITS)
                    forks += 1
            fleet.drain_writeback(reason="shutdown")
        finally:
            self.timer.active = False
        wall = now() - start
        members = fleet.members()
        recorded = sum(m.run.duration_us for m in members) / 1e6
        dvs = [m.dejaview for m in members]
        results.recorded(recorded, wall, stored_bytes(dvs, fleet.cas))
        results.attempted += steps
        results.check(all(m.state == "done" for m in members),
                      "fleet members not all done: %s" % sorted(
                          {m.state for m in members}))
        results.check(fleet.cas.refcount_consistent(),
                      "fleet refcounts inconsistent")
        results.check(fleet.cas.backlog_bytes() == 0, "writeback backlog")
        results.details["fleet_dedup_ratio"] = fleet.dedup_ratio()
        self._readback(fleet, rng, self.phase(index))
        self.fleet = fleet
        return wall

    def _fork(self, fleet, parent, source, scenario, units):
        """Fork a branch from one stored checkpoint of ``parent``."""
        branch = _timed(self.results, "revive_ms", fleet.revive,
                        parent.name, checkpoint_id=source.checkpoint_id,
                        scenario=scenario, units=units)
        self.results.check(
            branch.source_checkpoint == source.checkpoint_id
            and branch.runnable, "fork of %s@%d" % (parent.name,
                                                    source.checkpoint_id))
        return branch

    def _readback(self, fleet, rng, phase):
        members = [m for m in fleet.members() if not m.is_branch]
        # Seeks and searches browse the fleet's desktop sessions, the
        # recordings a user goes back to; the batch scenarios' few
        # screens and words would make these figures a mix of unlike
        # sessions whose median swings from run to run.
        browsed = [m for m in members if m.scenario == "desktop"]
        per_member = {k: -(-v // len(browsed)) for k, v in READBACK.items()
                      if k != "revive"}
        for member in browsed:
            target = RecallTarget(member.dejaview)
            target.execute(target.plan(rng, per_member, phase),
                           self.results)
        # A fleet's revive is a fork: fork from stored checkpoints of the
        # finished members, then delete each branch unrun.
        sources = spread_evenly(
            [(m, r) for m in members for r in m.dejaview.engine.history],
            READBACK["revive"], phase)
        rng.shuffle(sources)
        for index, (parent, source) in enumerate(sources):
            branch = self._fork(fleet, parent, source, STORM_MIX[0], 1)
            fleet.delete_branch(branch.name)
            if index % 10 == 9:
                _release()
        self.results.check(fleet.cas.refcount_consistent(),
                           "refcounts inconsistent after branch deletes")

    def finish(self):
        self.fleet = None
        while len(self.results.setup_s) < MIN_SETUPS:
            _release()
            self._build(self.round_seed(0))

    def dejaviews(self):
        if self.fleet is None:
            return []
        return [m.dejaview for m in self.fleet.members()]


class Recall(Workload):
    name = "recall"

    def __init__(self, *args):
        super().__init__(*args)
        self.target = None
        self.recording = None

    def setup(self):
        """Record and thin one desktop session (set-up time covers
        construction, recording and the thinning pass)."""
        self.target = self.recording = None
        _release()
        start = now()
        recording, _wall = _record_desktop(RECALL_RECORDING_SEED,
                                           RECALL_UNITS, self.results,
                                           self.timer)
        report = recording.dejaview.thin_checkpoints()
        # _record_desktop logged construction alone; this set-up sample
        # covers construction, recording and thinning.
        self.results.setup_s[-1] = now() - start
        self.target = RecallTarget(
            recording.dejaview,
            anchors=anchor_index(recording.tap.getvalue()),
            thinned=report.thinned_images)
        self.results.details["thinned"] = len(self.target.thinned)
        self.results.details["thin_dangling"] = list(self.target.dangling)
        self.recording = recording

    def round(self, index):
        ops = self.target.plan(random.Random(self.round_seed(index)),
                               RECALL_ROUND, self.phase(index))
        start = now()
        self.target.execute(ops, self.results)
        return now() - start

    def dejaviews(self):
        return [self.recording.dejaview] if self.recording else []


WORKLOADS = {cls.name: cls for cls in (DesktopRecord, FleetServe, Recall)}


def make(name, seed, results, timer):
    return WORKLOADS[name](seed, results, timer)
