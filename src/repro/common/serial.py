"""Tag-length-value (TLV) binary record codec.

The display record log (section 4.1) and the checkpoint image format
(section 5) are both append-only streams of typed binary records.  This
module provides the shared framing: each record is

    +--------+------------+-----------------+---------+
    | tag:u32| length:u32 | payload (bytes) | crc:u32 |
    +--------+------------+-----------------+---------+

in little-endian byte order, preceded once per stream by a magic header that
identifies the stream kind and format version.  The trailing CRC-32 covers
the record header and payload, so a record torn by a crash mid-write is
detected (truncated or mismatched checksum) rather than silently misparsed.
Format version 2 added the checksum trailer; version-1 streams are rejected.
Format version 3 (checkpoint images only) keeps the identical framing but
marks streams whose page records are *digest references* into the
content-addressed page store instead of inline payloads; readers accept
both versions and expose :attr:`RecordReader.version` so the image codec
can pick the right record interpretation.

Streams are written to any file-like object with ``write``; in this
reproduction that is usually a :class:`io.BytesIO` held by the simulated
disk, but the format works equally against real files.

Crash-recovery helpers: :meth:`RecordWriter.write_torn` deliberately emits a
partial record (fault injection), :meth:`RecordWriter.truncate_to` discards a
torn tail, and :func:`scan_valid_prefix` finds the longest valid prefix of a
possibly-torn stream.
"""

import io
import struct
import zlib

_HEADER = struct.Struct("<4sHH")
_RECORD = struct.Struct("<II")
_CRC = struct.Struct("<I")

MAGIC = b"DJVW"
FORMAT_VERSION = 2
#: Streams whose page records reference the content-addressed store.
FORMAT_VERSION_MANIFEST = 3
SUPPORTED_VERSIONS = (FORMAT_VERSION, FORMAT_VERSION_MANIFEST)


class StreamCorrupt(ValueError):
    """The byte stream does not parse as a valid TLV record stream."""


class RecordWriter:
    """Appends TLV records to a binary stream.

    Parameters
    ----------
    fileobj:
        Writable binary file-like object.  If ``None``, an internal
        :class:`io.BytesIO` is created and exposed via :attr:`fileobj`.
    kind:
        16-bit stream kind identifier written into the header (e.g. display
        log vs checkpoint image), so readers can refuse mismatched streams.
    """

    def __init__(self, fileobj=None, kind=0, version=FORMAT_VERSION):
        if version not in SUPPORTED_VERSIONS:
            raise ValueError("unsupported format version %r" % (version,))
        self.fileobj = fileobj if fileobj is not None else io.BytesIO()
        self.kind = kind
        self.version = version
        self._bytes_written = 0
        header = _HEADER.pack(MAGIC, version, kind)
        self.fileobj.write(header)
        self._bytes_written += len(header)

    @property
    def bytes_written(self):
        """Total bytes emitted, including the stream header."""
        return self._bytes_written

    def write(self, tag, payload):
        """Append one record; returns the offset at which it was written."""
        if not 0 <= tag < 2**32:
            raise ValueError("tag out of range: %r" % (tag,))
        payload = bytes(payload)
        offset = self._bytes_written
        head = _RECORD.pack(tag, len(payload))
        self.fileobj.write(head)
        self.fileobj.write(payload)
        self.fileobj.write(_CRC.pack(zlib.crc32(head + payload)))
        self._bytes_written += _RECORD.size + len(payload) + _CRC.size
        return offset

    def write_torn(self, tag, payload, keep=0.5):
        """Append a deliberately torn record: the header plus only a
        ``keep`` fraction of the payload, with no checksum trailer —
        exactly what a crash mid-``write`` leaves behind.  Fault
        injection only; returns the offset of the torn record."""
        payload = bytes(payload)
        offset = self._bytes_written
        head = _RECORD.pack(tag, len(payload))
        partial = payload[:int(len(payload) * keep)]
        self.fileobj.write(head)
        self.fileobj.write(partial)
        self._bytes_written += _RECORD.size + len(partial)
        return offset

    def truncate_to(self, offset):
        """Discard everything at and after ``offset`` (recovery: drop a
        torn tail).  Returns the number of bytes dropped."""
        if not _HEADER.size <= offset <= self._bytes_written:
            raise ValueError("truncate offset %d outside stream" % offset)
        dropped = self._bytes_written - offset
        self.fileobj.seek(offset)
        self.fileobj.truncate()
        self._bytes_written = offset
        return dropped

    def getvalue(self):
        """Return the full stream bytes (only for BytesIO-backed writers)."""
        return self.fileobj.getvalue()

    @classmethod
    def resume(cls, fileobj, expect_kind=None):
        """Reopen an existing (possibly torn) stream for appending.

        Validates the header, scans the longest valid record prefix,
        truncates any torn tail, and returns ``(writer, dropped_bytes,
        record_count)`` with the writer positioned to append after the
        last intact record.  This is how the flight-recorder ring journal
        reuses its newest segment after an unclean shutdown instead of
        abandoning it.  Raises :class:`StreamCorrupt` if the header
        itself is invalid (nothing is resumable then).
        """
        fileobj.seek(0)
        reader = RecordReader(fileobj, expect_kind=expect_kind)
        count = sum(1 for _record in _intact(reader))
        end_offset = reader.tell()
        fileobj.seek(0, io.SEEK_END)
        stream_end = fileobj.tell()
        writer = cls.__new__(cls)
        writer.fileobj = fileobj
        writer.kind = reader.kind
        writer.version = reader.version
        writer._bytes_written = stream_end
        dropped = writer.truncate_to(end_offset) if stream_end > end_offset \
            else 0
        return writer, dropped, count


def _records(data, view, pos, base, end_at=None):
    """Yield ``(tag, payload, offset)`` for each record of ``data`` from
    index ``pos``, verifying each checksum; raise :class:`StreamCorrupt`
    at the first torn or corrupt record.

    The one record walker behind every reader.  ``data`` is the stream's
    bytes and ``view`` a :class:`memoryview` of them: headers and
    trailers are unpacked in place and the CRC runs over each record's
    header and payload where they lie, so the only copy made is the
    payload handed out.  ``base`` is the stream offset of ``data[0]``, so
    offsets and error messages name stream positions.  ``end_at``, a
    one-item list, is kept at the index just past the last intact record
    (a cell rather than the reader itself, so the walk and its reader
    form no reference cycle and are freed as soon as they are dropped).
    """
    end = len(data)
    unpack_head = _RECORD.unpack_from
    unpack_crc = _CRC.unpack_from
    crc32 = zlib.crc32
    while pos < end:
        offset = base + pos
        body = pos + _RECORD.size
        if body > end:
            raise StreamCorrupt("truncated record header at offset %d"
                                % offset)
        tag, length = unpack_head(data, pos)
        tail = body + length
        if tail > end:
            raise StreamCorrupt("truncated record payload at offset %d"
                                % offset)
        if tail + _CRC.size > end:
            raise StreamCorrupt("truncated record checksum at offset %d"
                                % offset)
        if unpack_crc(data, tail)[0] != crc32(view[pos:tail]):
            raise StreamCorrupt("record checksum mismatch at offset %d"
                                % offset)
        pos = tail + _CRC.size
        if end_at is not None:
            end_at[0] = pos
        yield tag, data[body:tail], offset


class RecordReader:
    """Iterates TLV records from bytes or a readable binary stream.

    A stream is read in full, from its current position, when the reader
    is built; records are then walked in memory by offset.
    """

    def __init__(self, data, expect_kind=None):
        if isinstance(data, (bytes, bytearray, memoryview)):
            self._base = 0
        else:
            self._base = data.tell()
            data = data.read()
        # Mutable inputs are snapshotted, as a stream read would be.
        self._data = bytes(data)
        self._view = memoryview(self._data)
        if len(self._data) < _HEADER.size:
            raise StreamCorrupt("stream shorter than header")
        magic, version, kind = _HEADER.unpack_from(self._data)
        if magic != MAGIC:
            raise StreamCorrupt("bad magic %r" % (magic,))
        if version not in SUPPORTED_VERSIONS:
            raise StreamCorrupt("unsupported format version %d" % version)
        if expect_kind is not None and kind != expect_kind:
            raise StreamCorrupt(
                "stream kind %d does not match expected %d" % (kind, expect_kind)
            )
        self.kind = kind
        self.version = version
        self.seek_to(self._base + _HEADER.size)

    def __iter__(self):
        return self._walk

    def __next__(self):
        """Return the next ``(tag, payload, offset)`` triple."""
        return next(self._walk)

    def tell(self):
        """Stream offset of the next record: after a torn or corrupt
        record, the end of the last intact one."""
        return self._base + self._end_at[0]

    def seek_to(self, offset):
        """Position the reader at a record offset previously returned by a
        writer, so iteration resumes from that record."""
        self._end_at = [offset - self._base]
        self._walk = _records(self._data, self._view, self._end_at[0],
                              self._base, self._end_at)
        return self


def _intact(reader):
    """Records from ``reader`` up to the first torn or corrupt one."""
    while True:
        try:
            yield next(reader)
        except (StopIteration, StreamCorrupt):
            return


def read_at(data, offset):
    """Random-access read of the single record at ``offset``.

    ``data`` may be bytes or a seekable stream.  Returns ``(tag, payload)``.
    This is how the playback engine fetches screenshots and commands located
    via the timeline index without scanning the whole log.
    """
    if isinstance(data, (bytes, bytearray, memoryview)):
        data, pos = bytes(data), offset
    else:
        # Only this record's bytes: its header names the rest's length.
        data.seek(offset)
        head = data.read(_RECORD.size)
        rest = b""
        if len(head) == _RECORD.size:
            rest = data.read(_RECORD.unpack(head)[1] + _CRC.size)
        data, pos = head + rest, 0
    record = next(_records(data, memoryview(data), pos, offset - pos), None)
    if record is None:
        raise StreamCorrupt("no record at offset %d" % offset)
    return record[0], record[1]


def scan_valid_prefix(data, expect_kind=None):
    """Find the longest valid prefix of a possibly-torn stream.

    Returns ``(end_offset, records)`` where ``records`` is a list of
    ``(tag, payload, offset)`` triples that parse and checksum cleanly
    and ``end_offset`` is the first byte past the last valid record —
    the offset to :meth:`RecordWriter.truncate_to` during recovery.
    Raises :class:`StreamCorrupt` only if the stream *header* itself is
    invalid (nothing is salvageable then).
    """
    reader = RecordReader(data, expect_kind=expect_kind)
    records = list(_intact(reader))
    return reader.tell(), records
