"""Checkpoint image format: roundtrips, corruption handling, fuzzing."""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import CheckpointError
from repro.common.serial import (
    FORMAT_VERSION_MANIFEST,
    RecordWriter,
    StreamCorrupt,
)
from repro.checkpoint.image import (
    DIGEST_SIZE,
    STREAM_KIND_CHECKPOINT,
    TAG_METADATA,
    TAG_PAGE,
    TAG_PAGE_REF,
    CheckpointImage,
    page_digest,
)
from repro.checkpoint.storage import CheckpointStorage

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


def _fixture(name):
    with open(os.path.join(DATA_DIR, name), "rb") as handle:
        return handle.read()


def _image(pages=3):
    image = CheckpointImage(
        checkpoint_id=7,
        timestamp_us=123456,
        container_name="desktop",
        parent_id=6,
        full=False,
        fs_txn=42,
    )
    image.processes = [{
        "vpid": 1, "parent_vpid": None, "name": "init", "state": "runnable",
        "nice": 0, "uid": 1000, "gid": 1000, "groups": [1000],
        "pending_signals": [], "blocked_signals": [], "signal_handlers": {},
        "threads": [{"tid": 0, "registers": {"pc": 0}, "fpu_state": ""}],
        "ptraced_by": None, "cwd": "/", "open_files": [],
    }]
    image.regions = {1: [{"start": 0x1000_0000, "npages": 8, "prot": 3,
                          "name": "heap"}]}
    for page in range(pages):
        key = (1, 0x1000_0000, page)
        image.pages[key] = bytes([page]) * 64
        image.page_locations[key] = 7
    image.relinked_files = [(1, 3, "/.dejaview/relink-9")]
    return image


class TestImageRoundtrip:
    def test_full_roundtrip(self):
        image = _image()
        restored = CheckpointImage.deserialize(image.serialize())
        assert restored.checkpoint_id == 7
        assert restored.parent_id == 6
        assert not restored.full
        assert restored.fs_txn == 42
        assert restored.container_name == "desktop"
        assert restored.processes == image.processes
        assert restored.regions == image.regions
        assert restored.pages == image.pages
        assert restored.page_locations == image.page_locations
        assert restored.relinked_files == image.relinked_files

    def test_size_accounting(self):
        image = _image(pages=4)
        assert image.saved_page_count == 4
        assert image.page_bytes == 4 * 64
        assert image.metadata_bytes > 0
        assert image.nbytes >= image.metadata_bytes + image.page_bytes

    def test_empty_image_roundtrip(self):
        image = CheckpointImage(1, 0, "empty")
        restored = CheckpointImage.deserialize(image.serialize())
        assert restored.pages == {}
        assert restored.processes == []

    def test_repr(self):
        assert "incremental" in repr(_image())
        full = CheckpointImage(1, 0, "x", full=True)
        assert "full" in repr(full)


class TestManifestFormat:
    """Serial format v3: digest-reference page records."""

    def test_v3_roundtrip_carries_digests_not_pages(self):
        image = _image()
        restored = CheckpointImage.deserialize(
            image.serialize(format=FORMAT_VERSION_MANIFEST))
        assert restored.pages == {}
        assert restored.page_digests == {
            key: page_digest(content) for key, content in image.pages.items()
        }
        assert restored.page_locations == image.page_locations
        assert restored.processes == image.processes

    def test_manifest_from_pages_and_from_digests_agree(self):
        image = _image()
        v3 = image.serialize(format=FORMAT_VERSION_MANIFEST)
        restored = CheckpointImage.deserialize(v3)
        assert restored.manifest() == image.manifest()

    def test_unknown_format_rejected(self):
        with pytest.raises(CheckpointError):
            _image().serialize(format=4)

    def test_v2_stream_rejects_digest_records(self):
        image = CheckpointImage(1, 0, "x")
        writer = RecordWriter(kind=STREAM_KIND_CHECKPOINT)
        writer.write(TAG_METADATA, image.encode_metadata())
        writer.write(TAG_PAGE_REF, b"\x00" * (12 + DIGEST_SIZE))
        with pytest.raises(CheckpointError):
            CheckpointImage.deserialize(writer.getvalue())

    def test_v3_stream_rejects_inline_page_records(self):
        image = CheckpointImage(1, 0, "x")
        writer = RecordWriter(kind=STREAM_KIND_CHECKPOINT,
                              version=FORMAT_VERSION_MANIFEST)
        writer.write(TAG_METADATA, image.encode_metadata())
        writer.write(TAG_PAGE, b"\x00" * 80)
        with pytest.raises(CheckpointError):
            CheckpointImage.deserialize(writer.getvalue())

    def test_malformed_digest_length_rejected(self):
        image = CheckpointImage(1, 0, "x")
        writer = RecordWriter(kind=STREAM_KIND_CHECKPOINT,
                              version=FORMAT_VERSION_MANIFEST)
        writer.write(TAG_METADATA, image.encode_metadata())
        writer.write(TAG_PAGE_REF, b"\x00" * (12 + DIGEST_SIZE - 1))
        with pytest.raises(CheckpointError):
            CheckpointImage.deserialize(writer.getvalue())


class TestGoldenFixtures:
    """Committed on-disk blobs: the formats must stay readable forever."""

    def test_v2_fixture_deserializes(self):
        restored = CheckpointImage.deserialize(_fixture("ckpt_v2.bin"))
        expected = _image()
        assert restored.checkpoint_id == expected.checkpoint_id
        assert restored.pages == expected.pages
        assert restored.page_locations == expected.page_locations
        assert restored.relinked_files == expected.relinked_files

    def test_v3_fixture_deserializes(self):
        restored = CheckpointImage.deserialize(_fixture("ckpt_v3.bin"))
        expected = _image()
        assert restored.checkpoint_id == expected.checkpoint_id
        assert restored.pages == {}
        assert restored.page_digests == {
            key: page_digest(content)
            for key, content in expected.pages.items()
        }

    def test_v2_fixture_matches_current_serializer(self):
        assert _image().serialize() == _fixture("ckpt_v2.bin")

    def test_v3_reserialization_is_byte_identical(self):
        data = _fixture("ckpt_v3.bin")
        restored = CheckpointImage.deserialize(data)
        assert restored.serialize(format=FORMAT_VERSION_MANIFEST) == data
        # And serializing the payload-carrying original lands on the same
        # bytes: digests are derived, not stateful.
        assert _image().serialize(format=FORMAT_VERSION_MANIFEST) == data

    def test_torn_v3_manifest_detected_by_blob_ok(self):
        storage = CheckpointStorage()
        image = _image()
        storage.store(image, charge_time=False)
        frame = storage._blobs[image.checkpoint_id]
        storage._blobs[image.checkpoint_id] = frame[:len(frame) // 2]
        ok, reason = storage.blob_ok(image.checkpoint_id)
        assert not ok
        assert "torn" in reason


class TestCorruption:
    def test_empty_stream_rejected(self):
        writer = RecordWriter(kind=STREAM_KIND_CHECKPOINT)
        with pytest.raises(CheckpointError):
            CheckpointImage.deserialize(writer.getvalue())

    def test_wrong_first_tag_rejected(self):
        writer = RecordWriter(kind=STREAM_KIND_CHECKPOINT)
        writer.write(TAG_PAGE, b"\x00" * 16)
        with pytest.raises(CheckpointError):
            CheckpointImage.deserialize(writer.getvalue())

    def test_unknown_tag_rejected(self):
        image = CheckpointImage(1, 0, "x")
        writer = RecordWriter(kind=STREAM_KIND_CHECKPOINT)
        writer.write(TAG_METADATA, image.encode_metadata())
        writer.write(99, b"junk")
        with pytest.raises(CheckpointError):
            CheckpointImage.deserialize(writer.getvalue())

    def test_wrong_stream_kind_rejected(self):
        writer = RecordWriter(kind=0xBEEF)
        writer.write(TAG_METADATA, b"{}")
        with pytest.raises(StreamCorrupt):
            CheckpointImage.deserialize(writer.getvalue())

    def test_truncated_stream_rejected(self):
        data = _image().serialize()
        with pytest.raises((CheckpointError, StreamCorrupt)):
            CheckpointImage.deserialize(data[: len(data) - 7])


@settings(max_examples=40, deadline=None)
@given(
    pages=st.dictionaries(
        st.tuples(
            st.integers(min_value=1, max_value=99),
            st.sampled_from([0x1000_0000, 0x2000_0000]),
            st.integers(min_value=0, max_value=500),
        ),
        st.binary(min_size=0, max_size=128),
        max_size=20,
    ),
    checkpoint_id=st.integers(min_value=1, max_value=10**6),
    full=st.booleans(),
)
def test_property_image_roundtrip(pages, checkpoint_id, full):
    image = CheckpointImage(checkpoint_id, 5, "fuzz", full=full)
    image.pages = dict(pages)
    image.page_locations = {key: checkpoint_id for key in pages}
    restored = CheckpointImage.deserialize(image.serialize())
    assert restored.pages == image.pages
    assert restored.page_locations == image.page_locations
    assert restored.checkpoint_id == checkpoint_id
    assert restored.full == full
