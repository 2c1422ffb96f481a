"""Integration tests for revive (section 5.2)."""

import re
import zlib

import pytest

from repro.common.costs import PAGE_SIZE
from repro.common.errors import CheckpointError
from repro.checkpoint.engine import EngineOptions
from repro.checkpoint.restore import ReviveManager
from repro.checkpoint.storage import _TRAILER, TRAILER_MAGIC
from repro.replay.replayer import record_scenario
from repro.vex.process import ProcessState
from repro.vex.sockets import Socket, SocketState

from tests.test_checkpoint_engine import make_rig


def make_revive_rig(**kwargs):
    kernel, container, fsstore, storage, engine, procs = make_rig(**kwargs)
    manager = ReviveManager(kernel, fsstore, storage)
    return kernel, container, fsstore, storage, engine, procs, manager


class TestReviveBasics:
    def test_revive_rebuilds_process_forest(self):
        _k, container, _f, _s, engine, procs, manager = make_revive_rig(nprocs=3)
        engine.checkpoint()
        result = manager.revive(1)
        revived = result.container
        assert len(revived.live_processes()) == 3
        # vpids are preserved inside the new private namespace.
        for original in procs:
            clone = revived.process_by_vpid(original.vpid)
            assert clone.name == original.name
        # The parent/child relationships survive.
        init = revived.process_by_vpid(procs[0].vpid)
        assert {c.vpid for c in init.children} == {p.vpid for p in procs[1:]}

    def test_revived_memory_matches_checkpoint_time(self):
        _k, _c, _f, _s, engine, procs, manager = make_revive_rig(
            nprocs=2, pages_per_proc=4
        )
        engine.checkpoint()
        # Mutate the live session afterwards.
        space = procs[0].address_space
        region = space.regions()[0]
        space.write(region.start, b"post-checkpoint garbage")
        result = manager.revive(1)
        clone = result.container.process_by_vpid(procs[0].vpid)
        restored = clone.address_space.read(region.start, 11)
        assert restored == b"init-page-0"

    def test_revived_processes_runnable(self):
        *_rest, engine, _procs, manager = make_revive_rig()
        engine.checkpoint()
        result = manager.revive(1)
        assert all(
            p.state is ProcessState.RUNNABLE
            for p in result.container.live_processes()
        )

    def test_revive_unknown_checkpoint_rejected(self):
        *_rest, _engine, _procs, manager = make_revive_rig()
        with pytest.raises(CheckpointError):
            manager.revive(99)

    def test_revive_preserves_process_details(self):
        _k, _c, _f, _s, engine, procs, manager = make_revive_rig(nprocs=1)
        proc = procs[0]
        proc.cwd = "/home/user"
        proc.blocked_signals.add(10)
        proc.signal_handlers[15] = "handle_term"
        proc.spawn_thread({"pc": 77, "sp": 88})
        engine.checkpoint()
        clone = manager.revive(1).container.process_by_vpid(proc.vpid)
        assert clone.cwd == "/home/user"
        assert 10 in clone.blocked_signals
        assert clone.signal_handlers[15] == "handle_term"
        assert len(clone.threads) == 2
        assert clone.threads[1].registers == {"pc": 77, "sp": 88}

    def test_revive_namespace_isolated_from_live_session(self):
        """Live session and revived session can use the same vpids."""
        _k, container, _f, _s, engine, procs, manager = make_revive_rig()
        engine.checkpoint()
        revived = manager.revive(1).container
        for vpid in [p.vpid for p in procs]:
            assert container.process_by_vpid(vpid) is not None
            assert revived.process_by_vpid(vpid) is not None
            assert container.process_by_vpid(vpid) is not revived.process_by_vpid(vpid)


class TestReviveFromIncrementalChain:
    def test_revive_mid_chain_sees_state_at_that_checkpoint(self):
        _k, _c, _f, _s, engine, procs, manager = make_revive_rig(
            nprocs=1, pages_per_proc=4
        )
        space = procs[0].address_space
        region = space.regions()[0]
        engine.checkpoint()  # 1: "init-page-0"
        space.write(region.start, b"version-two")
        engine.checkpoint()  # 2
        space.write(region.start, b"version-three")
        engine.checkpoint()  # 3
        for ckpt_id, expected in [(1, b"init-page-0"), (2, b"version-two"),
                                  (3, b"version-three")]:
            clone = manager.revive(ckpt_id).container.process_by_vpid(
                procs[0].vpid
            )
            assert clone.address_space.read(region.start, len(expected)) == expected

    def test_chain_revive_accesses_multiple_images(self):
        _k, _c, _f, _s, engine, procs, manager = make_revive_rig(
            nprocs=1, pages_per_proc=8
        )
        space = procs[0].address_space
        region = space.regions()[0]
        engine.checkpoint()  # full
        space.write(region.start, b"delta")
        engine.checkpoint()  # incremental: page 0 only
        result = manager.revive(2)
        # Pages 1..7 must come from image 1; page 0 from image 2.
        assert result.images_accessed == 2
        clone = result.container.process_by_vpid(procs[0].vpid)
        assert clone.address_space.read(region.start, 5) == b"delta"
        assert (
            clone.address_space.read(region.start + PAGE_SIZE, 11)
            == b"init-page-1"
        )

    def test_full_checkpoint_caps_chain_length(self):
        options = EngineOptions(full_checkpoint_interval=2)
        _k, _c, _f, _s, engine, procs, manager = make_revive_rig(
            options=options, nprocs=1, pages_per_proc=4
        )
        space = procs[0].address_space
        region = space.regions()[0]
        for i in range(5):
            space.write(region.start, b"round-%d" % i)
            engine.checkpoint()
        # Checkpoint 4 is full, so reviving 5 touches at most images 4..5.
        result = manager.revive(5)
        assert result.images_accessed <= 2


class TestReviveFileSystem:
    def test_revived_fs_matches_checkpoint_time(self):
        _k, _c, fsstore, _s, engine, _procs, manager = make_revive_rig()
        fsstore.fs.create("/home/user/doc.txt", b"at checkpoint")
        engine.checkpoint()
        fsstore.fs.write_file("/home/user/doc.txt", b"changed later")
        mount = manager.revive(1).container.mount
        assert mount.read_file("/home/user/doc.txt") == b"at checkpoint"

    def test_revived_fs_is_writable_and_isolated(self):
        _k, _c, fsstore, _s, engine, _procs, manager = make_revive_rig()
        fsstore.fs.create("/home/user/doc.txt", b"shared")
        engine.checkpoint()
        a = manager.revive(1).container.mount
        b = manager.revive(1).container.mount
        a.write_file("/home/user/doc.txt", b"divergent-a")
        assert b.read_file("/home/user/doc.txt") == b"shared"
        assert fsstore.fs.read_file("/home/user/doc.txt") == b"shared"

    def test_deleted_file_restored_in_revive(self):
        """The /tmp/foo scenario end-to-end."""
        _k, _c, fsstore, _s, engine, _procs, manager = make_revive_rig()
        fsstore.fs.create("/home/user/tmp-foo", b"precious")
        engine.checkpoint()
        fsstore.fs.unlink("/home/user/tmp-foo")
        mount = manager.revive(1).container.mount
        assert mount.read_file("/home/user/tmp-foo") == b"precious"

    def test_relinked_file_invisible_but_fd_restored(self):
        _k, _c, fsstore, _s, engine, procs, manager = make_revive_rig(nprocs=1)
        fs = fsstore.fs
        fs.create("/home/user/scratch", b"unsaved")
        handle = fs.open("/home/user/scratch")
        entry = procs[0].open_fd(path="/home/user/scratch", inode=handle.inode_id)
        fs.unlink("/home/user/scratch")
        entry.unlinked = True
        engine.checkpoint()
        result = manager.revive(1)
        clone = result.container.process_by_vpid(procs[0].vpid)
        restored_fd = clone.open_files[entry.fd]
        assert restored_fd.unlinked
        # The relink entry has been unlinked again in the revived view.
        _vpid, _fd, target = result.container.mount, None, None


class TestReviveSockets:
    def _proc_with_sockets(self, procs):
        proc = procs[0]
        external = Socket("tcp", "10.0.0.5:5000", "93.184.216.34:80",
                          state=SocketState.ESTABLISHED)
        internal = Socket("tcp", "127.0.0.1:6000", "127.0.0.1:35000",
                          state=SocketState.ESTABLISHED, internal=True)
        udp = Socket("udp", "10.0.0.5:1234", "8.8.8.8:53",
                     state=SocketState.ESTABLISHED)
        fds = [
            proc.open_fd(kind="socket", socket=external),
            proc.open_fd(kind="socket", socket=internal),
            proc.open_fd(kind="socket", socket=udp),
        ]
        return proc, fds

    def test_external_tcp_reset_internal_and_udp_kept(self):
        _k, _c, _f, _s, engine, procs, manager = make_revive_rig(nprocs=1)
        proc, fds = self._proc_with_sockets(procs)
        engine.checkpoint()
        result = manager.revive(1)
        assert result.reset_sockets == 1
        clone = result.container.process_by_vpid(proc.vpid)
        ext = clone.open_files[fds[0].fd].socket
        inte = clone.open_files[fds[1].fd].socket
        udp = clone.open_files[fds[2].fd].socket
        assert ext.state is SocketState.RESET
        assert inte.state is SocketState.ESTABLISHED
        assert udp.state is SocketState.ESTABLISHED

    def test_network_disabled_by_default(self):
        *_rest, engine, _procs, manager = make_revive_rig()
        engine.checkpoint()
        revived = manager.revive(1).container
        assert not revived.network_enabled
        revived.network_policy["browser"] = True
        assert revived.network_allowed_for("browser")
        assert not revived.network_allowed_for("mail")

    def test_network_can_be_enabled_at_revive(self):
        *_rest, engine, _procs, manager = make_revive_rig()
        engine.checkpoint()
        revived = manager.revive(1, network_enabled=True).container
        assert revived.network_enabled


class TestReviveLatency:
    def test_cached_revive_faster_than_uncached(self):
        """Figure 7: cached revives are well under the uncached times."""
        *_rest, engine, _procs, manager = make_revive_rig(
            nprocs=3, pages_per_proc=128
        )
        engine.checkpoint()
        uncached = manager.revive(1, cached=False)
        cached = manager.revive(1, cached=True)
        assert cached.duration_us < uncached.duration_us

    def test_more_memory_slower_uncached_revive(self):
        """Figure 7: revive time grows with application memory usage."""
        *_r1, engine_small, _p1, manager_small = make_revive_rig(
            nprocs=2, pages_per_proc=16
        )
        *_r2, engine_big, _p2, manager_big = make_revive_rig(
            nprocs=2, pages_per_proc=512
        )
        engine_small.checkpoint()
        engine_big.checkpoint()
        small = manager_small.revive(1, cached=False)
        big = manager_big.revive(1, cached=False)
        assert big.duration_us > small.duration_us
        assert big.pages_restored > small.pages_restored

    def test_revive_result_reports_bytes_read(self):
        *_rest, engine, _procs, manager = make_revive_rig()
        engine.checkpoint()
        result = manager.revive(1, cached=False)
        assert result.bytes_read > 0
        assert result.processes == 3


def _reframe_flipped(storage, image_id, index=-5):
    """Flip one byte of an image's decompressed stream (by default the
    last byte of its last record's payload) and store it re-framed with a
    valid trailer: damage only the record checksums can see."""
    frame = storage._blobs[image_id]
    raw = bytearray(zlib.decompress(frame[:-_TRAILER.size]))
    raw[index] ^= 0xFF
    storage._blobs[image_id] = storage._frame(bytes(raw))[1]


class TestCorruptRecordContract:
    """A frame whose trailer verifies but which holds a record with a bad
    checksum (or bytes that do not decompress) is an unreadable
    checkpoint: the read path raises :class:`CheckpointError`, never a
    codec error, so *Take me back* falls back past it."""

    @pytest.fixture(scope="class")
    def recorded(self):
        # Shared: each test below damages a different stored image.
        return record_scenario("desktop", units=60)

    def test_take_me_back_falls_back_past_bad_chain_record(self):
        dejaview = record_scenario("desktop", units=60).dejaview
        storage = dejaview.storage
        target = dejaview.engine.history[-1]
        image = storage.load(target.checkpoint_id, cached=True)
        chain_id = max(owner for owner in image.page_locations.values()
                       if owner != target.checkpoint_id)
        _reframe_flipped(storage, chain_id)
        assert storage.blob_ok(chain_id)[0]
        fallbacks = dejaview.telemetry.metrics.counter("revive.fallbacks")
        before = fallbacks.value
        revived = dejaview.take_me_back(target.timestamp_us)
        assert revived.checkpoint_id < chain_id
        assert fallbacks.value - before == \
            target.checkpoint_id - revived.checkpoint_id

    def test_load_and_load_pages_raise_checkpoint_error(self, recorded):
        storage = recorded.dejaview.storage
        image_id = storage.stored_ids()[0]
        keys = list(storage.load(image_id, cached=True).page_digests)
        _reframe_flipped(storage, image_id)
        reads = storage.read_count
        with pytest.raises(CheckpointError, match="checksum mismatch"):
            storage.load(image_id)
        with pytest.raises(CheckpointError, match="checksum mismatch"):
            storage.load_pages(image_id, keys)
        assert storage.read_count == reads + 2

    def test_undecompressable_frame_raises_checkpoint_error(self, recorded):
        storage = recorded.dejaview.storage
        image_id = storage.stored_ids()[1]
        blob = b"not a zlib stream"
        storage._blobs[image_id] = blob + _TRAILER.pack(
            TRAILER_MAGIC, len(blob), len(blob), zlib.crc32(blob))
        assert storage.blob_ok(image_id)[0]
        with pytest.raises(CheckpointError, match="unreadable"):
            storage.load(image_id)
        with pytest.raises(CheckpointError, match="unreadable"):
            storage.load_pages(image_id, [])

    def test_unresolvable_digest_raises_checkpoint_error(self, recorded):
        storage = recorded.dejaview.storage
        image_id = storage.stored_ids()[2]
        image = storage.load(image_id, cached=True)
        key = max(image.page_digests)
        digest = image.page_digests[key]
        payload = storage.cas.pages.pop(digest)
        message = "missing page %r in page store" % (key,)
        try:
            with pytest.raises(CheckpointError, match=re.escape(message)):
                storage.load(image_id)
            with pytest.raises(CheckpointError, match=re.escape(message)):
                storage.load_pages(image_id, [])
        finally:
            # Other images of the shared recording may hold this page.
            storage.cas.pages[digest] = payload


class TestLoadPages:
    """The chain read revive uses for older images: the requested pages
    of one image, charged exactly like a full load."""

    @pytest.fixture(scope="class")
    def recorded(self):
        return record_scenario("desktop", units=30)

    def test_pages_match_full_load(self, recorded):
        storage = recorded.dejaview.storage
        for image_id in storage.stored_ids():
            image = storage.load(image_id, cached=True)
            keys = sorted(image.pages)[::3] + [(0, 0, 0)]
            pages = storage.load_pages(image_id, keys, cached=True)
            assert pages == {key: image.pages[key] for key in keys[:-1]}

    @pytest.mark.parametrize("cached", [False, True, None])
    def test_charged_like_load(self, recorded, cached):
        storage = recorded.dejaview.storage
        clock = storage.clock
        image_id = storage.stored_ids()[-1]
        charges = []
        for read in (lambda: storage.load(image_id, cached=cached),
                     lambda: storage.load_pages(image_id, [],
                                                cached=cached)):
            storage.evict_all()
            before = (clock.now_us, storage.read_count)
            read()
            charges.append((clock.now_us - before[0],
                            storage.read_count - before[1],
                            storage.is_cached(image_id)))
        assert charges[0] == charges[1]
