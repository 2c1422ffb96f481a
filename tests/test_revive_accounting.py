"""Golden revive accounting: what a *Take me back* reads and is charged.

``tests/data/revive_accounting_v1.json`` pins, for every stored
checkpoint of a multi-hop desktop recording revived uncached, forced
cached and on the storage's own cache state, the Figure 7 quantities of
the :class:`ReviveResult` (``duration_us``, ``bytes_read``,
``images_accessed``, ``pages_restored``), a SHA-1 over the revived
memory, the storage's ``read_count`` and cached set, and the session
clock after the call.  Any change to how revive reads the incremental
chain must leave every one of these bit-identical: the read path may get
cheaper on the host, never on the virtual clock.

Regenerate (only when the accounting is *meant* to change) with::

    PYTHONPATH=src python -m tests.test_revive_accounting > \\
        tests/data/revive_accounting_v1.json
"""

import hashlib
import json
import os
import struct

import pytest

from repro.replay.replayer import record_scenario

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")
GOLDEN = "revive_accounting_v1.json"

#: A 60-unit desktop recording: nine checkpoints whose incremental
#: images each read pages from up to three other images.
UNITS = 60
MODES = (("uncached", False), ("cached", True), ("storage", None))

_KEY = struct.Struct("<IQII")


def memory_sha1(container):
    """SHA-1 over every resident page of a revived container, in vpid,
    region and page order."""
    digest = hashlib.sha1()
    for process in sorted(container.live_processes(),
                          key=lambda p: p.vpid):
        for region in process.address_space.regions():
            for page_index in sorted(region.pages):
                digest.update(_KEY.pack(process.vpid, region.start,
                                        region.npages, page_index))
                digest.update(region.pages[page_index])
    return digest.hexdigest()


def revive_accounting(units=UNITS):
    """Record the desktop scenario and take-me-back to every stored
    checkpoint in each cache mode; returns the golden document."""
    recorded = record_scenario("desktop", units=units)
    dejaview = recorded.dejaview
    storage = dejaview.storage
    clock = dejaview.session.clock
    rows = []
    for record in dejaview.engine.history:
        for mode, cached in MODES:
            result = dejaview.take_me_back(record.timestamp_us,
                                           cached=cached)
            rows.append({
                "checkpoint_id": record.checkpoint_id,
                "mode": mode,
                "revived_id": result.checkpoint_id,
                "duration_us": result.duration_us,
                "bytes_read": result.bytes_read,
                "images_accessed": result.images_accessed,
                "pages_restored": result.pages_restored,
                "memory_sha1": memory_sha1(result.container),
                "read_count": storage.read_count,
                "cached_ids": [image_id for image_id in storage.stored_ids()
                               if storage.is_cached(image_id)],
                "clock_us": clock.now_us,
            })
    return {"schema": "dejaview.revive_accounting/v1",
            "scenario": "desktop", "units": units, "revives": rows}


@pytest.fixture(scope="module")
def golden():
    with open(os.path.join(DATA_DIR, GOLDEN)) as handle:
        return json.load(handle)


def test_golden_is_multi_hop(golden):
    assert max(row["images_accessed"] for row in golden["revives"]) >= 3


def test_revive_accounting_matches_golden(golden):
    current = revive_accounting(golden["units"])
    assert len(current["revives"]) == len(golden["revives"])
    for got, want in zip(current["revives"], golden["revives"]):
        assert got == want, "checkpoint %d (%s)" % (want["checkpoint_id"],
                                                   want["mode"])


if __name__ == "__main__":
    print(json.dumps(revive_accounting(), indent=1))
