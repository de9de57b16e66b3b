"""E16 — Durability: recovery speed and WAL overhead.

Two acceptance bars from the durability PR:

* **Replay folds the log.**  Recovering a chain-200 transitive-closure
  session with every snapshot lost — rematerializing the program file
  and replaying the *entire* WAL, folded into one net batch — must be
  >= 5x faster than re-running the same writes one at a time on an
  in-memory session, the maintenance pass per transaction that replay
  no longer pays.  Recovery from the newest snapshot plus the WAL tail
  is recorded beside both.
* **Logging is near-free.**  With ``fsync="batch"`` (the default
  policy), single-edge insert/retract maintenance on a durable chain-200
  session must cost <= 1.3x the plain in-memory session — the WAL append
  is two ``os.write`` calls per batch, amortizing the fsync.

CI's shared runners are noisy, so the smoke step can lower the bars via
``E16_RECOVERY_BAR`` / ``E16_OVERHEAD_BAR``; measured ratios are always
recorded in the benchmark JSON either way.

Run with::

    pytest benchmarks/bench_e16_durability.py --benchmark-only -s
"""

import os
import shutil
import time

from repro.analysis.report import ExperimentRow, best_of, print_table
from repro.db import DatabaseSession
from repro.workloads.closure import transitive_closure_program
from repro.workloads.graphs import chain_edges

CHAIN = 200
#: Churn transactions logged before the crash (the WAL the no-snapshot
#: path must replay in full).
CHURN = 100
#: Transactions after the last checkpoint (the tail the snapshot path
#: replays).
TAIL = 8

RECOVERY_BAR = float(os.environ.get("E16_RECOVERY_BAR", "5"))
OVERHEAD_BAR = float(os.environ.get("E16_OVERHEAD_BAR", "1.3"))


def _churned_directory(base):
    """Build a crashed chain-200 data directory: CHURN committed WAL
    transactions, a checkpoint TAIL transactions before the end, no
    final checkpoint (the process 'died').

    The churn mixes cheap branch-edge inserts with mid-chain toggles of
    ``e(n100, n101)`` — a retract/insert pair there tears down and
    re-derives the O(n^2/4) paths crossing the cut, the expensive end of
    real maintenance — so full-WAL replay reflects an honest update mix,
    not just best-case appends."""
    directory = os.path.join(base, "data")
    program = transitive_closure_program(chain_edges(CHAIN))
    session = DatabaseSession(program, path=directory, fsync="off")
    _apply_churn(session)
    session.checkpoint()
    _apply_tail(session)
    expected_facts = len(session)
    total_txns = session.stats()["durability"]["wal_last_txn"]
    session._durable.abandon()
    return directory, expected_facts, total_txns


def _apply_churn(session):
    mid = "e(n%d, n%d)." % (CHAIN // 2, CHAIN // 2 + 1)
    present = True
    for step in range(CHURN - TAIL):
        if step % 8 == 7:
            (session.retract if present else session.insert)(mid)
            present = not present
        else:
            # Branch edges off the chain: each insert extends the closure
            # of every ancestor, so replay does real maintenance work.
            session.insert("e(n%d, x%d)." % (step % CHAIN, step))
    if not present:
        session.insert(mid)  # leave the chain whole for the tail


def _apply_tail(session):
    for step in range(TAIL):
        session.insert("e(n%d, y%d)." % (step, step))


def _time_open(directory):
    start = time.perf_counter()
    session = DatabaseSession.open(directory)
    elapsed = time.perf_counter() - start
    facts = len(session)
    replayed = session.stats()["durability"]["replayed_txns"]
    session.close(checkpoint=False)
    return elapsed, facts, replayed


def test_chain200_recovery_vs_full_replay(benchmark, tmp_path):
    directory, expected_facts, total_txns = _churned_directory(str(tmp_path))

    # Scenario A: snapshot + tail (the normal recovery path).
    snap_dir = os.path.join(str(tmp_path), "with_snapshot")
    shutil.copytree(directory, snap_dir)
    snap_s, snap_facts, snap_replayed = _time_open(snap_dir)

    # Scenario B: every snapshot lost — rematerialize the base program,
    # replay the whole WAL as one net batch.
    replay_dir = os.path.join(str(tmp_path), "wal_only")
    shutil.copytree(directory, replay_dir)
    for name in os.listdir(replay_dir):
        if name.endswith(".snap"):
            os.unlink(os.path.join(replay_dir, name))
    replay_s, replay_facts, replay_replayed = _time_open(replay_dir)

    # Re-running the whole op stream against a plain in-memory session:
    # one maintenance pass per write, which the folded replay avoids.
    start = time.perf_counter()
    fresh = DatabaseSession(transitive_closure_program(chain_edges(CHAIN)))
    _apply_churn(fresh)
    _apply_tail(fresh)
    rebuild_s = time.perf_counter() - start
    assert len(fresh) == expected_facts

    assert snap_facts == replay_facts == expected_facts
    assert snap_replayed == TAIL
    assert replay_replayed == total_txns
    ratio = replay_s / snap_s

    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    benchmark.extra_info.update(
        chain=CHAIN, churn=CHURN, tail=TAIL, facts=expected_facts,
        snapshot_recovery_s=round(snap_s, 4),
        full_replay_s=round(replay_s, 4),
        rebuild_from_scratch_s=round(rebuild_s, 4),
        recovery_speedup=round(ratio, 1),
    )
    print_table(
        "E16a  Chain-%d crashed session: recovery paths" % CHAIN,
        ["path", "time (s)", "speedup"],
        [
            ExperimentRow("snapshot + %d-txn tail" % TAIL, {
                "time (s)": round(snap_s, 4),
                "speedup": round(ratio, 1),
            }),
            ExperimentRow("full WAL replay (%d txns)" % total_txns, {
                "time (s)": round(replay_s, 4), "speedup": 1.0,
            }),
            ExperimentRow("in-memory re-run (no WAL)", {
                "time (s)": round(rebuild_s, 4),
                "speedup": round(rebuild_s / replay_s, 2),
            }),
        ],
    )
    assert rebuild_s / replay_s >= RECOVERY_BAR


def test_fsync_batch_overhead_on_updates(benchmark, tmp_path):
    program = transitive_closure_program(chain_edges(CHAIN))
    edge = "e(n_pre, n0)."

    def cycle(session):
        # One single-edge insert+retract cycle — the same measurement e11
        # gates the in-memory session on.
        def run():
            session.insert(edge)
            session.retract(edge)
        run()  # warm the indexes
        return run

    plain = DatabaseSession(program)
    durable = DatabaseSession(
        program, path=os.path.join(str(tmp_path), "data"), fsync="batch",
    )
    plain_s, durable_s = best_of(cycle(plain), cycle(durable), repeats=5)
    durable.close()

    overhead = durable_s / plain_s
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    benchmark.extra_info.update(
        chain=CHAIN,
        plain_cycle_s=round(plain_s, 6),
        durable_cycle_s=round(durable_s, 6),
        overhead_x=round(overhead, 3),
    )
    print_table(
        "E16b  Chain-%d single-edge cycle: WAL (fsync=batch) overhead"
        % CHAIN,
        ["session", "cycle (s)", "ratio"],
        [
            ExperimentRow("in-memory", {
                "cycle (s)": round(plain_s, 5), "ratio": 1.0,
            }),
            ExperimentRow("durable, fsync=batch", {
                "cycle (s)": round(durable_s, 5),
                "ratio": round(overhead, 3),
            }),
        ],
    )
    assert overhead <= OVERHEAD_BAR


def test_wellfounded_recovery_round_trip(benchmark, tmp_path):
    """Durability is not stratified-only: a win/move session (undefined
    partition and all) crashes and recovers byte-identically."""
    from repro.workloads.games import line_into_cycle_game_program

    directory = os.path.join(str(tmp_path), "wf")
    program, _line, _cycle = line_into_cycle_game_program(40, 12)
    session = DatabaseSession(program, path=directory, fsync="off")
    for step in range(20):
        session.insert("move(extra%d, extra%d)." % (step, step + 1))
    expected_true = set(session.true)
    expected_undef = set(session.undefined)
    session._durable.abandon()

    start = time.perf_counter()
    recovered = DatabaseSession.open(directory)
    recovery_s = time.perf_counter() - start
    assert set(recovered.true) == expected_true
    assert set(recovered.undefined) == expected_undef
    recovered.close(checkpoint=False)

    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    benchmark.extra_info.update(
        recovery_s=round(recovery_s, 4),
        true_atoms=len(expected_true),
        undefined_atoms=len(expected_undef),
    )
