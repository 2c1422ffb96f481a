"""Checkpoint image format.

An image captures everything section 5.2 lists for revive: per-process run
state, program name, scheduling parameters, credentials, pending and blocked
signals, CPU registers, FPU state, ptrace information, file system
namespace, open files, signal handling information, and virtual memory.

Incremental images (section 5.1.2) save only the pages modified since the
previous checkpoint.  To make any image in the chain revivable on its own,
each image also carries a **page-location directory**: for every page
resident at checkpoint time, the id of the image that holds its latest
saved copy ("when the restoration process encounters a memory region that
is contained in another file, as marked by its list of saved memory
regions, it opens the appropriate file and retrieves the necessary pages").

Serialization is TLV and comes in two on-disk formats:

* **v2 (whole blob)** — a JSON metadata record followed by one
  ``TAG_PAGE`` record per saved page carrying the page payload inline.
  Page payloads dominate, as the paper observes ("the memory state of the
  processes dominates the checkpoint image").
* **v3 (manifest)** — the same metadata record followed by one
  ``TAG_PAGE_REF`` record per saved page carrying only the SHA-1 digest
  of the page content.  Payloads live in the storage layer's
  content-addressed page store, shared across every image that saved an
  identical page; the stream header's format version distinguishes the
  two so v2 blobs remain readable.
"""

import hashlib
import json
import struct

from repro.common.errors import CheckpointError
from repro.common.serial import (
    FORMAT_VERSION,
    FORMAT_VERSION_MANIFEST,
    RecordReader,
    RecordWriter,
)

STREAM_KIND_CHECKPOINT = 0xC4E7

TAG_METADATA = 1
TAG_PAGE = 2
TAG_PAGE_REF = 3

_PAGE_HEADER = struct.Struct("<IQI")  # vpid, region start, page index

#: SHA-1 digest length: the content address of one page.
DIGEST_SIZE = hashlib.sha1().digest_size


def page_digest(content):
    """The content address of one page payload (raw SHA-1 digest)."""
    return hashlib.sha1(bytes(content)).digest()


def _page_key_str(key):
    vpid, region_start, page_index = key
    return "%d:%d:%d" % (vpid, region_start, page_index)


def _page_key_from_str(text):
    vpid, region_start, page_index = text.split(":")
    return (int(vpid), int(region_start), int(page_index))


def _open_stream(data):
    """Open a checkpoint stream at its leading metadata record; returns
    ``(reader, metadata payload)`` with the reader at the page records."""
    reader = RecordReader(data, expect_kind=STREAM_KIND_CHECKPOINT)
    try:
        tag, payload, _off = next(reader)
    except StopIteration:
        raise CheckpointError("empty checkpoint image")
    if tag != TAG_METADATA:
        raise CheckpointError("checkpoint image must begin with metadata")
    return reader, payload


def _page_records(reader):
    """``{key: body}`` over the page records left in ``reader``: inline
    payloads in a v2 stream, page digests in a v3 manifest."""
    manifest_stream = reader.version == FORMAT_VERSION_MANIFEST
    expected_tag = TAG_PAGE_REF if manifest_stream else TAG_PAGE
    unpack_key = _PAGE_HEADER.unpack_from
    header_size = _PAGE_HEADER.size
    pages = {}
    for tag, payload, _off in reader:
        if tag != expected_tag:
            raise CheckpointError("unexpected record tag %d in image" % tag)
        key = unpack_key(payload)
        body = payload[header_size:]
        if manifest_stream and len(body) != DIGEST_SIZE:
            raise CheckpointError(
                "malformed digest reference for page %r" % (key,))
        pages[key] = body
    return pages


class CheckpointImage:
    """One checkpoint of a container.

    Attributes
    ----------
    checkpoint_id:
        The monotonically increasing checkpoint counter; also recorded in
        the file system log (section 5.1.1).
    parent_id:
        Previous checkpoint in the incremental chain (None for the first).
    full:
        True when every resident page is saved in this image.
    fs_txn:
        The file system snapshot transaction bound to this checkpoint.
    processes:
        Per-process state records (dicts; see ``Process`` snapshots).
    regions:
        ``{vpid: [region metadata, ...]}``.
    pages:
        ``{(vpid, region_start, page_index): bytes}`` saved in THIS image.
    page_locations:
        ``{(vpid, region_start, page_index): image_id}`` for every page
        resident at checkpoint time.
    page_digests:
        ``{(vpid, region_start, page_index): sha1 digest}`` manifest for
        the pages saved in this image.  Populated by a v3 deserialize (the
        payloads then live in the content-addressed page store) or by
        :meth:`serialize` when writing format 3; empty for v2 round trips.
    """

    def __init__(self, checkpoint_id, timestamp_us, container_name,
                 parent_id=None, full=True, fs_txn=None):
        self.checkpoint_id = checkpoint_id
        self.timestamp_us = timestamp_us
        self.container_name = container_name
        self.parent_id = parent_id
        self.full = full
        self.fs_txn = fs_txn
        self.processes = []
        self.regions = {}
        self.pages = {}
        self.page_locations = {}
        self.page_digests = {}
        self.relinked_files = []  # [(vpid, fd, relink path), ...]

    # ------------------------------------------------------------------ #
    # Size accounting

    @property
    def saved_page_count(self):
        return len(self.pages)

    @property
    def page_bytes(self):
        return sum(len(content) for content in self.pages.values())

    @property
    def metadata_bytes(self):
        return len(self.encode_metadata())

    @property
    def nbytes(self):
        """Uncompressed serialized size (approximate until serialized)."""
        return self.size_with(self.encode_metadata())

    def size_with(self, metadata):
        """:attr:`nbytes` given this image's already-encoded ``metadata``
        record.  Encoding the page-location directory dominates, so the
        write path encodes once and passes the bytes along."""
        return len(metadata) + self.page_bytes + 16 * len(self.pages)

    # ------------------------------------------------------------------ #
    # Serialization

    def encode_metadata(self):
        """The JSON metadata record: everything but the page records."""
        meta = {
            "checkpoint_id": self.checkpoint_id,
            "timestamp_us": self.timestamp_us,
            "container_name": self.container_name,
            "parent_id": self.parent_id,
            "full": self.full,
            "fs_txn": self.fs_txn,
            "processes": self.processes,
            "regions": {str(vpid): regs for vpid, regs in self.regions.items()},
            "page_locations": {
                _page_key_str(key): image_id
                for key, image_id in self.page_locations.items()
            },
            "relinked_files": self.relinked_files,
        }
        return json.dumps(meta, separators=(",", ":")).encode("utf-8")

    def manifest(self):
        """``{key: digest}`` for every page saved in this image.

        Digests come from :attr:`page_digests` when present (a v3
        deserialize carries no payloads) and are computed from
        :attr:`pages` otherwise, so the manifest is always available no
        matter which format the image came from.
        """
        out = {}
        for key in set(self.pages) | set(self.page_digests):
            digest = self.page_digests.get(key)
            if digest is None:
                digest = page_digest(self.pages[key])
            out[key] = digest
        return out

    def serialize(self, format=FORMAT_VERSION, metadata=None):
        """Encode the image as a TLV byte stream.

        ``format=2`` (the default) writes the whole-blob layout with page
        payloads inline; ``format=3`` writes the manifest layout with one
        digest reference per page — the caller (the storage layer) owns
        placing the payloads in the content-addressed store.
        ``metadata`` is this image's :meth:`encode_metadata` output when
        the caller already holds it.
        """
        if format not in (FORMAT_VERSION, FORMAT_VERSION_MANIFEST):
            raise CheckpointError("unknown image format %r" % (format,))
        if metadata is None:
            metadata = self.encode_metadata()
        writer = RecordWriter(kind=STREAM_KIND_CHECKPOINT, version=format)
        writer.write(TAG_METADATA, metadata)
        if format == FORMAT_VERSION:
            records = self.pages
            tag = TAG_PAGE
        else:
            records = self.manifest()
            tag = TAG_PAGE_REF
        for (vpid, region_start, page_index), body in sorted(records.items()):
            header = _PAGE_HEADER.pack(vpid, region_start, page_index)
            writer.write(tag, header + body)
        return writer.getvalue()

    @classmethod
    def deserialize(cls, data):
        reader, payload = _open_stream(data)
        meta = json.loads(payload.decode("utf-8"))
        image = cls(
            checkpoint_id=meta["checkpoint_id"],
            timestamp_us=meta["timestamp_us"],
            container_name=meta["container_name"],
            parent_id=meta["parent_id"],
            full=meta["full"],
            fs_txn=meta["fs_txn"],
        )
        image.processes = meta["processes"]
        image.regions = {int(vpid): regs for vpid, regs in meta["regions"].items()}
        image.page_locations = {
            _page_key_from_str(key): image_id
            for key, image_id in meta["page_locations"].items()
        }
        image.relinked_files = [tuple(item) for item in meta["relinked_files"]]
        if reader.version == FORMAT_VERSION_MANIFEST:
            image.page_digests = _page_records(reader)
        else:
            image.pages = _page_records(reader)
        return image

    @staticmethod
    def read_pages(data):
        """The page records of a serialized image, skipping its metadata.

        Returns ``(manifest, {key: body})``: with ``manifest`` True (a v3
        stream) each body is a page digest, otherwise an inline payload.
        Every record's checksum is still verified; the metadata record is
        checked but never decoded, which is what makes reading an older
        image of the chain for a few of its pages cheap.
        """
        reader, _metadata = _open_stream(data)
        return reader.version == FORMAT_VERSION_MANIFEST, _page_records(reader)

    def __repr__(self):
        return (
            "CheckpointImage(id=%d, %s, processes=%d, pages=%d, parent=%r)"
            % (
                self.checkpoint_id,
                "full" if self.full else "incremental",
                len(self.processes),
                len(self.pages),
                self.parent_id,
            )
        )
