"""Write-ahead log unit tests: framing, transaction boundaries, torn-tail
truncation, fsync policies and crash-abandon semantics."""

import os

import pytest

from repro.durable import wal as wal_module
from repro.durable.wal import CommittedBatch, WriteAheadLog, read_frames
from repro.hilog.errors import CorruptWal


def _wal(tmp_path, **kwargs):
    return WriteAheadLog(str(tmp_path / "wal.log"), **kwargs)


def test_begin_commit_round_trip(tmp_path):
    wal = _wal(tmp_path, fsync="off")
    txn = wal.begin(["e(a, b).", "e(b, c)."], [])
    wal.commit(txn)
    txn2 = wal.begin([], ["e(a, b)."])
    wal.commit(txn2)
    wal.close()

    reopened = _wal(tmp_path, fsync="off")
    assert [batch.txn for batch in reopened.committed] == [txn, txn2]
    assert reopened.committed[0].inserts == ["e(a, b).", "e(b, c)."]
    assert reopened.committed[0].retracts == []
    assert reopened.committed[1].retracts == ["e(a, b)."]
    assert reopened.last_txn == txn2
    reopened.close()


def test_txn_numbering_continues_across_reopen(tmp_path):
    wal = _wal(tmp_path, fsync="off")
    wal.commit(wal.begin(["p(a)."], []))
    wal.close()
    wal = _wal(tmp_path, fsync="off")
    txn = wal.begin(["p(b)."], [])
    assert txn == 2
    wal.commit(txn)
    wal.close()


def test_uncommitted_transaction_is_skipped(tmp_path):
    wal = _wal(tmp_path, fsync="off")
    wal.commit(wal.begin(["p(a)."], []))
    wal.begin(["p(b)."], [])  # dangling: the process died mid-apply
    wal.abandon()

    reopened = _wal(tmp_path, fsync="off")
    assert [b.inserts for b in reopened.committed] == [["p(a)."]]
    # Numbering still continues past the dangling begin: its frames are
    # intact on disk, only the commit is missing.
    assert reopened.last_txn == 2
    reopened.close()


def test_aborted_transaction_is_skipped(tmp_path):
    wal = _wal(tmp_path, fsync="off")
    txn = wal.begin(["bad(a)."], [])
    wal.abort(txn)
    wal.commit(wal.begin(["good(a)."], []))
    wal.close()

    reopened = _wal(tmp_path, fsync="off")
    assert [b.inserts for b in reopened.committed] == [["good(a)."]]
    reopened.close()


def test_torn_tail_is_truncated_at_first_bad_frame(tmp_path):
    wal = _wal(tmp_path, fsync="always")
    wal.commit(wal.begin(["p(a)."], []))
    wal.close()
    path = str(tmp_path / "wal.log")
    clean_size = os.path.getsize(path)
    garbage = b"\x01\x02torn-by-a-crash"
    with open(path, "ab") as handle:
        handle.write(garbage)

    reopened = _wal(tmp_path, fsync="off")
    assert reopened.truncated_bytes == len(garbage)
    assert os.path.getsize(path) == clean_size
    assert [b.inserts for b in reopened.committed] == [["p(a)."]]
    # Appending after truncation lands where the tail was cut.
    reopened.commit(reopened.begin(["p(b)."], []))
    reopened.close()
    final = _wal(tmp_path, fsync="off")
    assert [b.inserts for b in final.committed] == [["p(a)."], ["p(b)."]]
    final.close()


def test_mid_frame_truncation_drops_partial_frame(tmp_path):
    wal = _wal(tmp_path, fsync="always")
    wal.commit(wal.begin(["p(a)."], []))
    first_end = os.path.getsize(str(tmp_path / "wal.log"))
    wal.commit(wal.begin(["p(b)."], []))
    wal.close()
    path = str(tmp_path / "wal.log")
    # Cut into the middle of the second transaction's frames.
    with open(path, "r+b") as handle:
        handle.truncate(first_end + 5)

    reopened = _wal(tmp_path, fsync="off")
    assert [b.inserts for b in reopened.committed] == [["p(a)."]]
    assert reopened.truncated_bytes == 5
    reopened.close()


def test_read_frames_strict_raises_corrupt_wal(tmp_path):
    wal = _wal(tmp_path, fsync="off")
    wal.commit(wal.begin(["p(a)."], []))
    wal.close()
    path = str(tmp_path / "wal.log")
    good = list(read_frames(path, strict=True))
    assert [record["t"] for _o, _e, record in good] == ["begin", "ins",
                                                        "commit"]
    # Flip a payload byte: lenient reads stop, strict reads raise with
    # the bad frame's offset.
    with open(path, "r+b") as handle:
        handle.seek(good[1][0] + 8)
        byte = handle.read(1)
        handle.seek(good[1][0] + 8)
        handle.write(bytes([byte[0] ^ 0xFF]))
    assert [r["t"] for _o, _e, r in read_frames(path)] == ["begin"]
    with pytest.raises(CorruptWal) as info:
        list(read_frames(path, strict=True))
    assert info.value.path == path
    assert info.value.offset == good[1][0]


def test_fsync_policy_validation(tmp_path):
    with pytest.raises(ValueError):
        _wal(tmp_path, fsync="sometimes")


def test_batch_policy_fsyncs_every_sync_every_commits(tmp_path, monkeypatch):
    monkeypatch.setattr(wal_module, "SYNC_EVERY", 2)
    synced = []
    monkeypatch.setattr(wal_module.os, "fsync", synced.append)
    wal = _wal(tmp_path, fsync="batch")
    for n in range(5):
        wal.commit(wal.begin(["p(%d)." % n], []))
    assert len(synced) == 2
    wal.close()  # the shutdown barrier covers the fifth
    assert len(synced) == 3


def test_abandon_keeps_written_bytes_visible(tmp_path):
    # os.write is unbuffered: an abandoned (crash-simulated) WAL still
    # shows every appended frame on reopen — same-OS crash semantics.
    wal = _wal(tmp_path, fsync="off")
    wal.commit(wal.begin(["p(a)."], []))
    wal.abandon()
    assert wal.closed
    reopened = _wal(tmp_path, fsync="off")
    assert [b.inserts for b in reopened.committed] == [["p(a)."]]
    reopened.close()


def test_committed_batch_repr(tmp_path):
    batch = CommittedBatch(3, ["a.", "b."], ["c."])
    assert repr(batch) == "CommittedBatch(txn=3, +2, -1)"
