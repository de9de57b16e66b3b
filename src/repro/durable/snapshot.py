"""Atomic snapshot checkpoints of a session's materialized state.

A snapshot captures everything recovery needs to skip rematerialization:
the program's rules, the extensional database, the materialized store
(grouped by relation, so reload rebuilds the per-relation fact sets
without re-deriving anything), the well-founded undefined partition, and
the WAL transaction the snapshot is current through.  Files written before
support counts left the store carry a ``"sup"`` section; the decoder
ignores it.

On-disk layout::

    +-----------+----------------+--------------+------------------+
    | magic (8) | crc32(body) (4)| len(body) (8)| body (marshal)   |
    +-----------+----------------+--------------+------------------+

The body is a :mod:`marshal`-serialized dict whose terms live in a
**post-order term pool**: entry *i* is a symbol name (``str``), a number
(``int``/``float``) or an application ``[name_id, arg_id, ...]`` whose
referents all precede it.  Decoding is a single sequential pass through
the hash-consing :class:`~repro.hilog.terms.Sym`/``Num``/``App``
constructors — every reloaded atom is the canonical interned object, as
the identity-based store requires — and loading a chain-200 closure
snapshot is several times faster than re-deriving the 20k facts.

Writes are atomic: the body lands in a ``*.tmp`` sibling, is fsynced,
and is :func:`os.replace`-d into place; a crash at any point leaves
either the old snapshot set or the new one, never a half-written file
that validates.  Readers (:func:`load_snapshot`) verify magic, length
and CRC and raise :class:`~repro.hilog.errors.CorruptSnapshot` on any
mismatch — recovery then falls back to the next-newest snapshot.

Snapshots are written from the single writer thread; in the serving path
the source store is a pinned frozen epoch, so checkpointing never blocks
concurrent readers (they answer from their own pinned epochs throughout).
"""

from __future__ import annotations

import marshal
import os
import re
import struct

from time import perf_counter as _perf_counter
from zlib import crc32

from repro.durable.faults import fire
from repro.engine.seminaive.relation import RelationStore
from repro.hilog.errors import CorruptSnapshot
from repro.hilog.terms import App, Num, Sym
from repro.obs.metrics import get_registry

MAGIC = b"RSNAP1\0\n"
_TRAILER = struct.Struct("<IQ")
_FORMAT = 1

_SNAP_RE = re.compile(r"^snap-(\d{16})\.snap$")


class SnapshotState:
    """A decoded snapshot: everything a session restore needs."""

    __slots__ = ("txn", "mode", "rules_text", "edb", "store", "undefined",
                 "path")

    def __init__(self, txn, mode, rules_text, edb, store, undefined,
                 path=None):
        self.txn = txn
        self.mode = mode
        self.rules_text = rules_text
        self.edb = edb
        self.store = store
        self.undefined = undefined
        self.path = path


def snapshot_path(directory, txn):
    return os.path.join(directory, "snap-%016d.snap" % txn)


def list_snapshots(directory):
    """``(txn, path)`` pairs of every snapshot in ``directory``, newest
    first."""
    found = []
    try:
        names = os.listdir(directory)
    except FileNotFoundError:
        return []
    for name in names:
        match = _SNAP_RE.match(name)
        if match is not None:
            found.append((int(match.group(1)), os.path.join(directory, name)))
    found.sort(reverse=True)
    return found


def prune_snapshots(directory, keep=2):
    """Drop all but the ``keep`` newest snapshots, plus stray ``*.tmp``
    leftovers from crashed checkpoint attempts.  Returns removed paths."""
    removed = []
    for _txn, path in list_snapshots(directory)[keep:]:
        try:
            os.unlink(path)
            removed.append(path)
        except OSError:
            pass
    try:
        names = os.listdir(directory)
    except FileNotFoundError:
        return removed
    for name in names:
        if name.endswith(".tmp"):
            path = os.path.join(directory, name)
            try:
                os.unlink(path)
                removed.append(path)
            except OSError:
                pass
    return removed


# -- encoding ----------------------------------------------------------------

def _term_id(term, index, pool):
    """Pool id of ``term``, appending its subterms post-order as needed."""
    known = index.get(term)
    if known is not None:
        return known
    stack = [(term, False)]
    while stack:
        node, expanded = stack.pop()
        if node in index:
            continue
        if isinstance(node, App):
            if not expanded:
                stack.append((node, True))
                stack.append((node.name, False))
                for arg in node.args:
                    stack.append((arg, False))
            else:
                entry = [index[node.name]]
                entry.extend(index[arg] for arg in node.args)
                index[node] = len(pool)
                pool.append(entry)
        elif isinstance(node, Num):
            index[node] = len(pool)
            pool.append(node.value)
        else:  # Sym (ground atoms never contain Var)
            index[node] = len(pool)
            pool.append(node.name)
    return index[term]


def _relation_groups(store):
    """``indicator -> [atoms]`` for any store shape: the fast path reads a
    :class:`RelationStore`'s own relations; epoch views (and any other
    iterable store) group through ``atom.indicator``."""
    if isinstance(store, RelationStore):
        return {relation.indicator: list(relation.facts)
                for relation in store.relations()}
    groups = {}
    for atom in store:
        groups.setdefault(atom.indicator, []).append(atom)
    return groups


def encode_snapshot(*, rules_text, mode, txn, edb, store, undefined):
    """The marshal-ready body dict for one checkpoint."""
    index = {}
    pool = []
    rels = []
    for indicator, atoms in _relation_groups(store).items():
        name_id = _term_id(indicator[0], index, pool)
        rels.append((name_id, indicator[1],
                     [_term_id(atom, index, pool) for atom in atoms]))
    body = {
        "format": _FORMAT,
        "txn": txn,
        "mode": mode,
        "rules": rules_text,
        "pool": pool,
        "rels": rels,
        "edb": [_term_id(atom, index, pool) for atom in edb],
        # A published epoch holds its undefined atoms as a frozenset, whose
        # order changes from one process to the next (terms hash by
        # identity): sorted, they encode to the same bytes.
        "undef": [_term_id(atom, index, pool)
                  for atom in sorted(undefined, key=repr)],
    }
    return body


def write_snapshot(directory, *, rules_text, mode, txn, edb, store,
                   undefined):
    """Atomically write one checkpoint; returns its path.

    Crash points: ``snapshot.mid_write`` (tmp file half-written, never
    renamed — recovery ignores it), ``snapshot.pre_rename`` (tmp complete
    but the old snapshot set still rules), ``snapshot.post_rename`` (the
    new snapshot is live; only the directory-entry fsync was lost).
    """
    started = _perf_counter()
    body = marshal.dumps(encode_snapshot(
        rules_text=rules_text, mode=mode, txn=txn, edb=edb, store=store,
        undefined=undefined,
    ))
    blob = MAGIC + _TRAILER.pack(crc32(body) & 0xFFFFFFFF, len(body)) + body
    final = snapshot_path(directory, txn)
    tmp = final + ".tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    try:
        half = len(blob) // 2
        os.write(fd, blob[:half])
        fire("snapshot.mid_write")
        os.write(fd, blob[half:])
        os.fsync(fd)
    finally:
        os.close(fd)
    fire("snapshot.pre_rename")
    os.replace(tmp, final)
    fire("snapshot.post_rename")
    _fsync_directory(directory)
    registry = get_registry()
    registry.counter(
        "repro_checkpoints", "Snapshot checkpoints written", family="durable",
    ).inc()
    registry.histogram(
        "repro_checkpoint_seconds", "Checkpoint write latency",
        family="durable",
    ).observe(_perf_counter() - started)
    return final


def _fsync_directory(directory):
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


# -- decoding ----------------------------------------------------------------

def load_snapshot(path):
    """Decode one snapshot file into a :class:`SnapshotState`.

    Raises :class:`CorruptSnapshot` on any validation failure — short or
    mangled header, CRC mismatch, undecodable body, dangling pool ids.
    """
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as error:
        raise CorruptSnapshot("unreadable snapshot: %s" % error, path=path)
    head = len(MAGIC) + _TRAILER.size
    if len(data) < head or not data.startswith(MAGIC):
        raise CorruptSnapshot("bad snapshot magic/header", path=path)
    crc, length = _TRAILER.unpack_from(data, len(MAGIC))
    body = data[head:]
    if len(body) != length:
        raise CorruptSnapshot(
            "snapshot body is %d bytes, header claims %d"
            % (len(body), length), path=path,
        )
    if crc32(body) & 0xFFFFFFFF != crc:
        raise CorruptSnapshot("snapshot CRC mismatch", path=path)
    try:
        payload = marshal.loads(body)
        return _decode(payload, path)
    except CorruptSnapshot:
        raise
    except Exception as error:
        raise CorruptSnapshot(
            "undecodable snapshot body: %s: %s"
            % (type(error).__name__, error), path=path,
        )


def _decode(payload, path):
    if not isinstance(payload, dict) or payload.get("format") != _FORMAT:
        raise CorruptSnapshot(
            "unsupported snapshot format %r" % (
                payload.get("format") if isinstance(payload, dict) else None,
            ), path=path,
        )
    terms = []
    append = terms.append
    for entry in payload["pool"]:
        kind = type(entry)
        if kind is str:
            append(Sym(entry))
        elif kind is list:
            append(App(terms[entry[0]],
                       tuple(terms[i] for i in entry[1:])))
        else:
            append(Num(entry))

    store = RelationStore.from_groups(
        ((terms[name_id], arity), [terms[i] for i in ids])
        for name_id, arity, ids in payload["rels"]
    )
    return SnapshotState(
        txn=payload["txn"],
        mode=payload["mode"],
        rules_text=payload["rules"],
        edb=set(terms[i] for i in payload["edb"]),
        store=store,
        undefined=frozenset(terms[i] for i in payload["undef"]),
        path=path,
    )
