"""The pidfile fallback of the data directory's single-writer lock, the
path taken where :mod:`fcntl` is missing, run here with ``fcntl`` hidden."""

import os
import subprocess
import sys

import pytest

import repro.durable.manager as manager
from repro.durable.manager import LOCK_NAME, DirectoryLock
from repro.hilog.errors import LockHeld


@pytest.fixture
def directory(tmp_path, monkeypatch):
    monkeypatch.setattr(manager, "fcntl", None)
    return str(tmp_path)


def _dead_pid():
    """The pid of a process that has exited (and been reaped)."""
    child = subprocess.Popen([sys.executable, "-c", "pass"])
    child.wait()
    return child.pid


def _lock_file(directory, text):
    with open(os.path.join(directory, LOCK_NAME), "w") as handle:
        handle.write(text)


def test_an_empty_lock_file_is_debris_and_is_reclaimed(directory):
    # What a crash between creating the lock file and writing the pid into
    # it used to leave behind: every later open refused.
    _lock_file(directory, "")
    lock = DirectoryLock(directory)
    with open(lock.path) as handle:
        assert int(handle.read()) == os.getpid()
    lock.release()


def test_a_dead_holders_lock_is_reclaimed(directory):
    _lock_file(directory, "%d\n" % _dead_pid())
    lock = DirectoryLock(directory)
    with open(lock.path) as handle:
        assert int(handle.read()) == os.getpid()
    lock.release()


def test_a_live_holder_is_refused_by_pid(directory):
    holder = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"])
    try:
        _lock_file(directory, "%d\n" % holder.pid)
        with pytest.raises(LockHeld, match="pid %d" % holder.pid) as info:
            DirectoryLock(directory)
        assert info.value.holder == holder.pid
    finally:
        holder.kill()
        holder.wait()
    # Nothing of the refused attempt stays behind.
    assert os.listdir(directory) == [LOCK_NAME]


def test_release_unlinks_the_lock_file(directory):
    lock = DirectoryLock(directory)
    with pytest.raises(LockHeld) as info:
        DirectoryLock(directory)
    assert info.value.holder == os.getpid()
    lock.release()
    assert os.listdir(directory) == []
    lock.release()  # idempotent
    DirectoryLock(directory).release()
