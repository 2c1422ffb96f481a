"""Revive: restore a session from a checkpoint (section 5.2).

Reviving a checkpointed desktop session:

1. create a new virtual execution environment (fresh private namespace, so
   the revived session can reuse its original vpids without clashing with
   the live session or other revives);
2. restore the file system: branch the snapshot bound to the checkpoint
   into an independent read-write union view;
3. recreate the process forest and restore each process's state from the
   checkpoint image — walking the incremental chain for pages whose latest
   copy lives in an older image;
4. resume: external TCP connections are reset, UDP and internal sockets
   restored precisely, network access disabled by default.
"""

from dataclasses import dataclass, field

from repro.common.errors import ReviveError
from repro.common.telemetry import resolve_telemetry
from repro.replay.tap import resolve_tap
from repro.vex.process import ProcessState
from repro.vex.sockets import Socket


@dataclass
class ReviveResult:
    """Outcome of one revive (the Figure 7 quantities)."""

    container: object
    checkpoint_id: int
    duration_us: int
    images_accessed: int
    pages_restored: int
    bytes_read: int
    cached: bool
    reset_sockets: int = 0
    processes: int = 0
    demand_paged: bool = False
    #: Pages left to fault in lazily (demand-paging mode only).
    pages_deferred: int = 0
    #: The :class:`DemandPager` serving this revive (demand-paging only).
    pager: object = None
    #: Every image id the revived memory may page from: the checkpoint
    #: plus its incremental chain (what a forked branch must pin).
    required_images: tuple = field(default_factory=tuple)
    #: True when this revive re-derived a THINNED instant by replaying
    #: forward from a surviving anchor instead of reading stored bytes.
    replayed: bool = False
    #: The surviving anchor checkpoint the replay seeded from.
    replay_anchor_id: object = None
    #: Events verified in lockstep during the replay leg.
    replay_events_verified: int = 0
    #: Virtual time re-executed between the anchor and the target — the
    #: replay distance this revive paid for (included in duration_us).
    replay_us: int = 0


class DemandPager:
    """Lazy page loader for a demand-paged revive.

    The paper notes: "The uncached performance could be improved by demand
    paging; the current revive implementation requires reading in all
    necessary checkpoint data into memory before reviving" (section 6).
    This implements that improvement: at revive time regions are mapped but
    left empty and write-protected with the checkpoint flag; the first
    touch of each page faults, and the pager fetches just that page from
    the owning image.

    Reads are random (one seek per fault when cold), so total I/O time is
    worse than the eager sequential read — the classic latency-vs-
    throughput trade demand paging makes.
    """

    def __init__(self, manager, page_owner, images, cached):
        self._manager = manager
        self._page_owner = page_owner  # key -> owning image id
        self._images = images  # image id -> loaded image (grows lazily)
        self._cached = cached
        self._m_faults = manager.telemetry.metrics.counter(
            "revive.demand_faults")
        self.faults = 0
        self.pages_loaded = 0
        #: Page bytes streamed in by faults so far — the demand-paged
        #: complement of the eager path's up-front ``bytes_read``.
        self.bytes_streamed = 0

    def remaining(self):
        return len(self._page_owner)

    def make_handler(self, vpid):
        def handler(region, page_index):
            self.fault(vpid, region, page_index)

        return handler

    def fault(self, vpid, region, page_index):
        """Service one demand-paging fault."""
        key = (vpid, region.start, page_index)
        owner_id = self._page_owner.pop(key, None)
        if owner_id is None:
            return  # already resident (or never checkpointed)
        costs = self._manager.costs
        clock = self._manager.clock
        if owner_id not in self._images:
            # First touch of this image: read its metadata record only.
            self._images[owner_id] = self._manager.storage.load(
                owner_id, cached=self._cached, metadata_only=True,
                clock=clock,
            )
        # Resolve the payload: inline for v2 images, via the manifest
        # digest into the content-addressed page store for v3.
        owner = self._images[owner_id]
        content = owner.pages.get(key)
        if content is None:
            digest = owner.page_digests.get(key)
            if digest is not None:
                content = self._manager.storage.cas_page(digest)
        # One page-sized random read from the image file / page store.
        page_len = len(content) if content is not None else 4096
        if self._cached:
            clock.advance_us(page_len * costs.memcpy_us_per_byte)
        else:
            clock.advance_us(costs.disk_read_us(page_len, sequential=False))
        if content is None:
            raise ReviveError("page %r missing from image %d" % (key, owner_id))
        region.pages[page_index] = content
        clock.advance_us(costs.page_restore_us)
        self.faults += 1
        self.pages_loaded += 1
        self.bytes_streamed += page_len
        self._m_faults.inc()
        # Faulted bytes accrue to the revive read counter as they
        # stream — the fork itself charged only metadata.
        self._manager._m_bytes.inc(page_len)

    def touch_all(self):
        """Fault in every remaining page (used by tests/benchmarks to
        compare total demand-paged cost against the eager path)."""
        container_pages = list(self._page_owner)
        for vpid, region_start, page_index in container_pages:
            process = self._by_vpid.get(vpid)
            if process is None:
                continue
            region = process.address_space.find_region(region_start)
            self.fault(vpid, region, page_index)

    def bind(self, by_vpid):
        self._by_vpid = dict(by_vpid)


class ReviveManager:
    """Revives checkpoints into fresh containers."""

    def __init__(self, kernel, fsstore, storage, telemetry=None,
                 replay=None):
        self.kernel = kernel
        self.fsstore = fsstore
        self.storage = storage
        self.clock = kernel.clock
        self.costs = kernel.costs
        #: Replay tap for *branch forks*: revive-time nondeterminism
        #: (socket resets, the fresh container identity) is logged as
        #: events so replay verifies it instead of re-deriving it.
        #: Solo revives keep the null tap — their recordings are closed
        #: by the time ``take_me_back`` runs.
        self.replay = resolve_tap(replay)
        #: Override for :meth:`revive_thinned`'s driver rebuild —
        #: ``factory(meta, capture) -> driver``.  Recordings of bespoke
        #: scripts (no scenario metadata) set this so ``take_me_back``
        #: can replay-revive their thinned instants.
        self.replay_driver_factory = None
        self.telemetry = resolve_telemetry(telemetry)
        metrics = self.telemetry.metrics
        self._m_revives = metrics.counter("revive.count")
        self._m_pages = metrics.counter("revive.pages_restored")
        self._m_bytes = metrics.counter("revive.bytes_read")
        self._m_duration = metrics.histogram("revive.duration_us")
        self._m_replays = metrics.counter("revive.replays")
        self._m_replay_us = metrics.histogram("revive.replay_us")
        self._revive_count = 0

    def revive(self, checkpoint_id, cached=None, network_enabled=False,
               demand_paging=False):
        """Revive ``checkpoint_id``; returns a :class:`ReviveResult`.

        ``cached`` forces the hot (True) or cold (False) read path;
        ``None`` uses the storage's actual cache state.  The revived
        container starts with network access disabled unless overridden
        (section 5.2).

        ``demand_paging=True`` implements the improvement section 6
        suggests: the session becomes usable immediately with empty,
        fault-on-touch regions, and pages stream in lazily as the revived
        applications touch them.  Revive *latency* drops dramatically;
        total I/O is higher (random page-sized reads).
        """
        with self.telemetry.span("revive", checkpoint_id=checkpoint_id,
                                 demand_paging=demand_paging) as span:
            result = self._revive(checkpoint_id, cached, network_enabled,
                                  demand_paging)
            span.set("pages_restored", result.pages_restored)
            span.set("bytes_read", result.bytes_read)
        self._m_revives.inc()
        self._m_pages.inc(result.pages_restored)
        self._m_bytes.inc(result.bytes_read)
        self._m_duration.observe(result.duration_us)
        return result

    def revive_thinned(self, checkpoint_id, tombstone, log_data,
                       cached=None, network_enabled=False,
                       driver_factory=None):
        """Revive a THINNED instant by replaying forward from its anchor.

        The stored bytes of ``checkpoint_id`` are gone; its ``tombstone``
        names the nearest surviving earlier anchor and the fingerprints
        the re-derived state must match.  This restores nothing from the
        thinned image directly — it re-executes the recording
        (``log_data``) from the anchor in lockstep
        (:func:`repro.replay.replayer.replay_to_checkpoint`), verifies
        the reconstructed framebuffer SHA-1 and checkpoint fingerprint
        against the tombstone, and then revives the freshly re-derived
        checkpoint out of the replayed session's storage.  The returned
        :class:`ReviveResult` is marked ``replayed`` and its
        ``duration_us`` includes the replay distance.

        Raises :class:`ReviveError` — never a silent fallback — when the
        anchor is gone, the replay diverges or ends early, or a
        fingerprint mismatches the tombstone.
        """
        from repro.replay.replayer import replay_to_checkpoint

        anchor_id = tombstone.get("anchor_id")
        if (anchor_id is None or anchor_id not in self.storage
                or not self.storage.blob_ok(anchor_id)[0]):
            raise ReviveError(
                "thinned checkpoint %d has no surviving anchor "
                "(anchor %r)" % (checkpoint_id, anchor_id))
        if not log_data:
            raise ReviveError(
                "thinned checkpoint %d needs the recording's event log "
                "to replay" % checkpoint_id)
        if driver_factory is None:
            driver_factory = self.replay_driver_factory
        outcome = replay_to_checkpoint(
            log_data, checkpoint_id, from_checkpoint=anchor_id,
            driver_factory=driver_factory)
        if not outcome.ok:
            raise ReviveError(
                "replay-revive of thinned checkpoint %d failed: %s"
                % (checkpoint_id, outcome.describe()))
        expected_fp = tombstone.get("checkpoint_fp")
        if expected_fp and outcome.reached["checkpoint_fp"] != expected_fp:
            raise ReviveError(
                "replayed checkpoint %d fingerprint %s does not match "
                "its tombstone (%s)" % (
                    checkpoint_id, outcome.reached["checkpoint_fp"],
                    expected_fp))
        expected_fb = tombstone.get("framebuffer_sha1")
        if (expected_fb
                and outcome.reached["framebuffer_sha1"] != expected_fb):
            raise ReviveError(
                "replayed checkpoint %d framebuffer %s does not match "
                "its tombstone (%s)" % (
                    checkpoint_id, outcome.reached["framebuffer_sha1"],
                    expected_fb))
        # The replayed session's storage now holds a fingerprint-verified
        # re-creation of the thinned image; revive it from there.  The
        # replay distance is charged to this session's clock — the
        # re-execution is the price a thinned revive pays.
        result = outcome.dejaview.reviver.revive(
            checkpoint_id, cached=cached,
            network_enabled=network_enabled)
        self.clock.advance_us(outcome.replay_us)
        result.replayed = True
        result.replay_anchor_id = anchor_id
        result.replay_events_verified = outcome.events_verified
        result.replay_us = outcome.replay_us
        result.duration_us += outcome.replay_us
        self._m_replays.inc()
        self._m_replay_us.observe(outcome.replay_us)
        self._m_duration.observe(result.duration_us)
        return result

    def _revive(self, checkpoint_id, cached, network_enabled, demand_paging):
        watch = self.clock.stopwatch()
        # A branch fork revives out of *another* session's storage: reads
        # charge this reviver's clock, and the parent's cache state is
        # left alone (evicting it would perturb the parent's timeline).
        foreign = self.clock is not self.storage.clock
        if cached is False and not foreign:
            self.storage.evict_all()

        image = self.storage.load(checkpoint_id, cached=cached,
                                  metadata_only=demand_paging,
                                  clock=self.clock)
        images_accessed = 1
        if demand_paging:
            # Only the metadata record was read at fork; page bytes are
            # accounted by the pager as faults stream them in.
            bytes_read = self.storage.metadata_size_of(checkpoint_id)
        else:
            bytes_read = self.storage.size_of(checkpoint_id)[0]

        self._revive_count += 1
        container = self.kernel.create_container(
            "%s-revived-%d" % (image.container_name, self._revive_count)
        )
        container.network_enabled = network_enabled

        # File system: branch the bound snapshot into a writable view
        # charging *this* reviver's clock (a fork must not advance the
        # parent session's timeline).
        mount = self.fsstore.branch_at(checkpoint_id, clock=self.clock,
                                       costs=self.costs)
        container.mount = mount

        # Process forest.
        reset_sockets = 0
        reset_records = []
        by_vpid = {}
        for record in image.processes:
            parent = by_vpid.get(record["parent_vpid"])
            process = container.spawn(
                record["name"],
                parent=parent,
                vpid=record["vpid"],
                uid=record["uid"],
                gid=record["gid"],
                nice=record["nice"],
            )
            reset_sockets += self._restore_process_state(
                process, record, reset_records)
            by_vpid[record["vpid"]] = process
            self.clock.advance_us(self.costs.process_state_restore_us)

        # Relinked files: reopen through the hidden entry, then unlink it,
        # "restoring the state to what it was at the time of the
        # checkpoint" (section 5.1.2).
        for vpid, fd_num, target in image.relinked_files:
            process = by_vpid.get(vpid)
            if process is None:
                continue
            entry = process.open_files.get(fd_num)
            if entry is not None:
                entry.unlinked = True
            if mount.exists(target):
                mount.unlink(target)

        # Memory: recreate regions, then either eagerly restore every
        # resident page from the incremental chain or arm demand paging.
        self._map_regions(image, by_vpid)
        pager = None
        if demand_paging:
            pager = DemandPager(self, dict(image.page_locations),
                                {checkpoint_id: image}, cached)
            pager.bind(by_vpid)
            for vpid, process in by_vpid.items():
                process.address_space.set_demand_handler(
                    pager.make_handler(vpid)
                )
            pages_restored, chain_bytes = 0, 0
        else:
            pages_restored, chain_images, chain_bytes = \
                self._restore_memory(image, by_vpid, cached)
            images_accessed += chain_images
        bytes_read += chain_bytes

        # Resume all processes.
        for process in container.live_processes():
            process.state = ProcessState.RUNNABLE

        # Branch-fork nondeterminism is *logged*, never re-derived: the
        # fresh container identity and every section 5.2 socket reset
        # become replay events that a re-fork must reproduce verbatim.
        if self.replay.active:
            self.replay.input_event("revive.fork", {
                "checkpoint_id": checkpoint_id,
                "container": container.name,
                "processes": len(by_vpid),
                "reset_sockets": reset_sockets,
            })
            for app, proto, local, remote, internal in reset_records:
                self.replay.socket(app, proto, local, remote, internal)

        result = ReviveResult(
            container=container,
            checkpoint_id=checkpoint_id,
            duration_us=watch.elapsed_us,
            images_accessed=images_accessed,
            pages_restored=pages_restored,
            bytes_read=bytes_read,
            cached=bool(cached) if cached is not None else True,
            reset_sockets=reset_sockets,
            processes=len(by_vpid),
            demand_paged=demand_paging,
            pages_deferred=pager.remaining() if pager else 0,
            required_images=tuple(sorted(
                {checkpoint_id} | set(image.page_locations.values()))),
        )
        result.pager = pager
        return result

    # ------------------------------------------------------------------ #

    def _restore_process_state(self, process, record, reset_records=None):
        """Restore the non-memory state vector; returns sockets reset.
        Reset socket descriptors are appended to ``reset_records`` for
        replay logging."""
        from repro.vex.process import FileDescriptor, Thread

        process.pending_signals = list(record["pending_signals"])
        process.blocked_signals = set(record["blocked_signals"])
        # JSON stringifies integer keys; restore them.
        process.signal_handlers = {
            int(signum): handler
            for signum, handler in record["signal_handlers"].items()
        }
        process.groups = list(record["groups"])
        process.ptraced_by = record["ptraced_by"]
        process.cwd = record["cwd"]
        process.threads = [Thread.from_snapshot(t) for t in record["threads"]]
        reset = 0
        for fd_record in record["open_files"]:
            socket = None
            if fd_record.get("socket") is not None:
                socket = Socket.from_snapshot(fd_record["socket"])
                if not socket.restore_for_revive():
                    reset += 1
                    if reset_records is not None:
                        reset_records.append((
                            process.name, socket.proto, socket.local,
                            socket.remote, socket.internal))
            entry = FileDescriptor(
                fd=fd_record["fd"],
                kind=fd_record["kind"],
                path=fd_record["path"],
                inode=fd_record["inode"],
                offset=fd_record["offset"],
                flags=fd_record["flags"],
                socket=socket,
            )
            entry.unlinked = fd_record["unlinked"]
            process.open_files[entry.fd] = entry
            process._next_fd = max(process._next_fd, entry.fd + 1)
        return reset

    def _map_regions(self, image, by_vpid):
        """Recreate every checkpointed VM region (empty)."""
        for vpid, region_records in image.regions.items():
            process = by_vpid.get(vpid)
            if process is None:
                raise ReviveError("image references unknown vpid %d" % vpid)
            for record in region_records:
                process.address_space.map_fixed(
                    record["start"],
                    record["npages"],
                    record["prot"],
                    record["name"],
                )

    def _restore_memory(self, image, by_vpid, cached):
        """Fill every resident page, walking the incremental chain.

        "This process then continues reading from the current checkpoint
        image, reiterating this sequence as necessary, until the complete
        state of the desktop session has been reinstated" (section 5.2).
        Each older image is read (and charged) in full, newest first, but
        only for the pages the directory assigns to it
        (:meth:`CheckpointStorage.load_pages`); pages are installed one
        region at a time.  Returns ``(pages_restored, chain_images,
        chain_bytes)`` for the images read besides ``image`` itself.
        """
        # Needed pages grouped by the image holding their latest copy,
        # then by the region they fill.
        by_owner = {}
        for key, owner_id in image.page_locations.items():
            regions = by_owner.setdefault(owner_id, {})
            regions.setdefault(key[:2], []).append(key)

        pages_restored = 0
        chain_images = 0
        chain_bytes = 0
        for owner_id in sorted(by_owner, reverse=True):
            regions = by_owner[owner_id]
            if owner_id == image.checkpoint_id:
                pages = image.pages
            else:
                pages = self.storage.load_pages(
                    owner_id, [key for keys in regions.values()
                               for key in keys],
                    cached=cached, clock=self.clock)
                chain_images += 1
                chain_bytes += self.storage.size_of(owner_id)[0]
            for (vpid, region_start), keys in regions.items():
                region = by_vpid[vpid].address_space.find_region(
                    region_start)
                if region is None:
                    raise ReviveError(
                        "page %r references unmapped region" % (keys[0],))
                installed = region.pages
                for key in keys:
                    content = pages.get(key)
                    if content is None:
                        raise ReviveError(
                            "page %r missing from image %d" % (key, owner_id)
                        )
                    installed[key[2]] = content
                pages_restored += len(keys)
        self.clock.advance_us(pages_restored * self.costs.page_restore_us)
        return pages_restored, chain_images, chain_bytes
