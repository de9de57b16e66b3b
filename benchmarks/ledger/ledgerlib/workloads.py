"""The four workloads: program text, seeded op generators and the
plain-Python references the server's answers are checked against.

Every workload's data is two disjoint *halves* (two chains, two game
graphs); the one client works on the first, the second is loaded and
maintained beside it.  A half is a small state machine: the generator
instance draws ops from it (writes depend on which edges exist), and a
second instance replays the ops actually sent, after the clock has
stopped, to say what each answer should have been.  Nothing here imports
``repro``: the references are the textbook algorithms (chain
reachability, retrograde win/lose/draw analysis), not the system under
test.
"""

import json
import random

from collections import namedtuple

#: One generated request.  ``body`` is the encoded JSON payload around
#: ``text`` (a query, an atom or a fact with its full stop), ``kind`` is
#: ``"read"`` or ``"write"``, ``desc`` is what the reference replays.
Op = namedtuple("Op", "path body kind desc text")

#: Leaf / toggle edges a half keeps aside for the recovery phase.
TOGGLES = 8


class Rhythm:
    """The fixed rhythm of a client's ops: every ``write_every``-th op is a
    write (4: the ingest stream, each write followed by three read-backs
    of its own half — the first right behind the write finds the
    processor's caches full of the write's data and is a third slower and
    three times as sensitive to what the host's other tenants do to the
    shared cache, so the median read must not be that one), and every
    fourth read is a ground check (``/ask``, ``/value``) instead of a
    ``/query``.  The seed decides *which* node or
    edge an op names, never which kind of op comes next, so any stretch of
    a run holds the same mix as any other and as the next run's.  (Three
    queries to one check, well away from one to one: the two kinds differ
    in cost, and at one to one the median read would sit on the boundary
    between them and jump from one kind to the other.)"""

    def __init__(self, write_every):
        self.write_every = write_every
        self._ops = 0
        self._reads = 0

    def writes_next(self):
        self._ops += 1
        return self._ops % self.write_every == 1

    def queries_next(self):
        self._reads += 1
        return self._reads % 4 != 0


def _op(path, field, text, kind, desc):
    return Op(path, json.dumps({field: text}).encode("utf-8"), kind, desc,
              text)


class TcHalf:
    """One client's chain ``p0 -> p1 -> ... -> pn`` under ``tc/2``, plus
    up to :data:`TOGGLES` leaf edges ``pn -> pxk`` hanging off the tail.

    ``write_every`` / ``tail_writes`` select the traffic mix: tail writes
    toggle leaf 0 (a delta of about ``n`` facts, maintenance does almost
    nothing); otherwise a write retracts a chain edge at a random position
    in the middle fifth and the next write puts it back (a delete-rederive
    delta of ``(k + 1) * (n - k)`` facts, within 4 % of ``n * n / 4``).

    Ops of one kind cost about the same, on purpose.  A median over costs
    that differ many times over (a delta of ``n`` facts at the chain's end,
    ``n * n / 4`` in the middle) moves with every request a busy host
    delays; over costs a few per cent apart it does not.  So writes stay in
    ``[2n/5, 3n/5)`` and queries start in ``[3n/5, 7n/10)``, above every
    break, where ``tc(pK, X)`` has between ``3n/10`` and ``2n/5`` answers
    whatever is missing below.  Ground checks range over the whole chain
    and do see the breaks.
    """

    rules = ("tc(X, Y) :- e(X, Y).", "tc(X, Y) :- e(X, Z), tc(Z, Y).")

    def __init__(self, prefix, rng, n, write_every, tail_writes):
        del rng  # a chain has no random part
        self.p = prefix
        self.n = n
        self.rhythm = Rhythm(write_every)
        self.tail_writes = tail_writes
        self.missing = set()
        self.leaves = set()
        self._positions = []

    # -- text ---------------------------------------------------------------

    def _chain(self, i):
        return "e(%s%d, %s%d)" % (self.p, i, self.p, i + 1)

    def _leaf(self, k):
        return "e(%s%d, %sx%d)" % (self.p, self.n, self.p, k)

    def facts(self):
        return [self._chain(i) + "." for i in range(self.n)]

    def _edge_text(self, where, index):
        return self._chain(index) if where == "chain" else self._leaf(index)

    # -- reference ----------------------------------------------------------

    def _end(self, i):
        """The last chain node reachable from ``pi``."""
        j = i
        while j < self.n and j not in self.missing:
            j += 1
        return j

    def _reachable(self, i):
        end = self._end(i)
        out = ["tc(%s%d, %s%d)" % (self.p, i, self.p, j)
               for j in range(i + 1, end + 1)]
        if end == self.n:
            out.extend("tc(%s%d, %sx%d)" % (self.p, i, self.p, k)
                       for k in self.leaves)
        return out

    def edge_query(self):
        return "e(X, Y)"

    def edge_answers(self):
        out = [self._chain(i) for i in range(self.n) if i not in self.missing]
        out.extend(self._leaf(k) for k in self.leaves)
        return out

    def model_atoms(self):
        """``(true, undefined)`` atom strings of this half's model."""
        true = self.edge_answers()
        for i in range(self.n + 1):
            true.extend(self._reachable(i))
        return true, []

    # -- ops ----------------------------------------------------------------

    def _write(self, insert, where, index):
        text = self._edge_text(where, index) + "."
        return _op("/insert" if insert else "/retract", "facts", text,
                   "write", ("ins" if insert else "ret", where, index))

    def gen(self, rng):
        if self.rhythm.writes_next():
            if self.tail_writes:
                op = self._write(0 not in self.leaves, "leaf", 0)
            elif self.missing:
                op = self._write(True, "chain", next(iter(self.missing)))
            else:
                if not self._positions:
                    self._positions = list(range(2 * self.n // 5,
                                                 3 * self.n // 5))
                    rng.shuffle(self._positions)
                op = self._write(False, "chain", self._positions.pop())
            self.apply(op.desc)
            return op
        return self.gen_read(rng)

    def gen_read(self, rng):
        if self.rhythm.queries_next():
            i = rng.randrange(3 * self.n // 5, 7 * self.n // 10)
            return _op("/query", "query", "tc(%s%d, X)" % (self.p, i),
                       "read", ("q", i))
        i, j = rng.randrange(self.n), rng.randrange(self.n + 1)
        return _op("/ask", "atom", "tc(%s%d, %s%d)" % (self.p, i, self.p, j),
                   "read", ("a", i, j))

    def recovery_op(self, index):
        k = index % TOGGLES
        op = self._write(k not in self.leaves, "leaf", k)
        self.apply(op.desc)
        return op

    def apply(self, desc):
        action, where, index = desc
        if where == "chain":
            # A chain edge is present when *not* in ``missing``.
            (self.missing.discard if action == "ins"
             else self.missing.add)(index)
        else:
            (self.leaves.add if action == "ins"
             else self.leaves.discard)(index)

    def expected(self, desc):
        """The response fields a read must carry."""
        if desc[0] == "q":
            answers = self._reachable(desc[1])
            return {"answers": sorted(answers), "count": len(answers)}
        i, j = desc[1], desc[2]
        return {"result": i < j <= self._end(i)}


def solve_game(nodes, moves):
    """Retrograde analysis of the win/move game: ``(won, lost)`` node
    sets; every other node is drawn (undefined in the well-founded
    model).  A node with no move is lost, a node with a move to a lost
    node is won, a node all of whose moves reach won nodes is lost."""
    successors = {node: 0 for node in nodes}
    predecessors = {node: [] for node in nodes}
    for source, target in moves:
        successors[source] += 1
        predecessors[target].append(source)
    won, lost = set(), set()
    frontier = [node for node in nodes if successors[node] == 0]
    lost.update(frontier)
    while frontier:
        node = frontier.pop()
        for before in predecessors[node]:
            if before in won or before in lost:
                continue
            if node in lost:
                won.add(before)
                frontier.append(before)
            else:
                successors[before] -= 1
                if successors[before] == 0:
                    lost.add(before)
                    frontier.append(before)
    return won, lost


class GameHalf:
    """One client's win/move game graph.

    ``relation`` is ``None`` for the normal program of Example 6.1
    (``move/2``, ``winning/1``, a cyclic graph, three-valued) or the name
    of this half's move relation for the HiLog program of Example 6.3
    (``winning(m)(X)`` over an acyclic graph, total).  A write inserts a
    random absent move and the next write retracts it again, so the graph
    stays the size it started at.
    """

    def __init__(self, prefix, rng, n, m, relation=None):
        self.p = prefix
        self.n = n
        self.rhythm = Rhythm(4)
        self.relation = relation
        self.acyclic = relation is not None
        self.moves = set()
        while len(self.moves) < m:
            self.moves.add(self._random_pair(rng))
        self.toggles = []
        while len(self.toggles) < TOGGLES:
            pair = self._random_pair(rng)
            if pair not in self.moves and pair not in self.toggles:
                self.toggles.append(pair)
        self.pending = None
        self._solved = None

    def _random_pair(self, rng):
        while True:
            i, j = rng.randrange(self.n), rng.randrange(self.n)
            if i == j:
                continue
            if self.acyclic and i > j:
                i, j = j, i
            return (i, j)

    # -- text ---------------------------------------------------------------

    @property
    def rules(self):
        if self.relation is None:
            return ("winning(X) :- move(X, Y), not winning(Y).",)
        return ("winning(M)(X) :- game(M), M(X, Y), not winning(M)(Y).",)

    def _move(self, pair):
        return "%s(%s%d, %s%d)" % (self.relation or "move",
                                   self.p, pair[0], self.p, pair[1])

    def _winning(self, i):
        if self.relation is None:
            return "winning(%s%d)" % (self.p, i)
        return "winning(%s)(%s%d)" % (self.relation, self.p, i)

    def facts(self):
        out = [self._move(pair) + "." for pair in sorted(self.moves)]
        if self.relation is not None:
            out.insert(0, "game(%s)." % self.relation)
        return out

    # -- reference ----------------------------------------------------------

    def _solve(self):
        if self._solved is None:
            self._solved = solve_game(range(self.n), self.moves)
        return self._solved

    def edge_query(self):
        return "%s(X, Y)" % (self.relation or "move")

    def edge_answers(self):
        return [self._move(pair) for pair in self.moves]

    def model_atoms(self):
        won, lost = self._solve()
        true = self.edge_answers()
        if self.relation is not None:
            true.append("game(%s)" % self.relation)
        true.extend(self._winning(i) for i in won)
        undefined = [self._winning(i) for i in range(self.n)
                     if i not in won and i not in lost]
        return true, undefined

    # -- ops ----------------------------------------------------------------

    def _write(self, insert, pair):
        return _op("/insert" if insert else "/retract", "facts",
                   self._move(pair) + ".", "write",
                   ("ins" if insert else "ret", pair))

    def gen(self, rng):
        if self.rhythm.writes_next():
            if self.pending is not None:
                op = self._write(False, self.pending)
                self.pending = None
            else:
                pair = self._random_pair(rng)
                while pair in self.moves:
                    pair = self._random_pair(rng)
                op = self._write(True, pair)
                self.pending = pair
            self.apply(op.desc)
            return op
        return self.gen_read(rng)

    def gen_read(self, rng):
        i = rng.randrange(self.n)
        if not self.rhythm.queries_next():
            return _op("/value", "atom", self._winning(i), "read", ("v", i))
        if self.relation is None:
            # The successors of one position (single-literal queries only:
            # the server answers with instances of the first literal).
            return _op("/query", "query", "move(%s%d, Y)" % (self.p, i),
                       "read", ("succ", i))
        return _op("/query", "query", "winning(%s)(X)" % self.relation,
                   "read", ("won",))

    def recovery_op(self, index):
        pair = self.toggles[index % TOGGLES]
        op = self._write(pair not in self.moves, pair)
        self.apply(op.desc)
        return op

    def apply(self, desc):
        action, pair = desc
        if action == "ins":
            self.moves.add(pair)
        else:
            self.moves.discard(pair)
        self._solved = None

    def expected(self, desc):
        won, lost = self._solve()
        if desc[0] == "v":
            i = desc[1]
            value = "true" if i in won else "false" if i in lost \
                else "undefined"
            return {"value": value}
        if desc[0] == "succ":
            answers = [self._move(pair) for pair in self.moves
                       if pair[0] == desc[1]]
        else:
            answers = [self._winning(i) for i in won]
        return {"answers": sorted(answers), "count": len(answers)}


class Spec:
    """One workload: how to build its halves, how to serve it, and the
    fixed counts the phases use."""

    def __init__(self, name, make_half, full, toy, serve_flags,
                 evaluator, recovery_writes, replay_ops):
        self.name = name
        self._make_half = make_half
        self.sizes = {"full": full, "toy": toy}
        #: Extra ``serve`` flags for the traffic phase; durable when they
        #: are non-empty (the data directory is added by the caller).
        self.serve_flags = tuple(serve_flags)
        #: Public batch entry point the cold evaluation goes through.
        self.evaluator = evaluator
        #: Single-edge writes before the kill in the recovery phase.
        self.recovery_writes = recovery_writes
        #: Ops replayed layer by layer in the traced run.
        self.replay_ops = replay_ops

    @property
    def durable(self):
        return bool(self.serve_flags)

    def halves(self, scale="full"):
        """Two fresh halves; the client works on the first.  The data is
        the same for every seed — the cost of a write depends on the
        graph's shape, and a run-to-run comparison needs that fixed — the
        ops are not."""
        size = self.sizes[scale]
        return [
            self._make_half(
                client, random.Random("%s/graph/%d" % (self.name, client)),
                size,
            )
            for client in (0, 1)
        ]

    def program_text(self, halves):
        lines = list(halves[0].rules)
        for half in halves:
            lines.extend(half.facts())
        return "\n".join(lines) + "\n"

    def ops(self, halves, seed, count):
        """``count`` generated ops on the first half (advances it)."""
        rng = random.Random("%s/%d/ops" % (self.name, seed))
        return [halves[0].gen(rng) for _ in range(count)]


def _tc(write_every, tail_writes):
    def make(client, rng, size):
        return TcHalf("ab"[client], rng, size["n"], write_every, tail_writes)
    return make


def _game(hilog):
    def make(client, rng, size):
        relation = ("m1", "m2")[client] if hilog else None
        return GameHalf(("dk" if hilog else "gh")[client], rng,
                        size["n"], size["m"], relation)
    return make


#: Every workload has *one* closed-loop client.  Two clients that both
#: write are bistable here — either their writes coalesce into one batch
#: and both then read undisturbed, or they alternate and every read waits
#: behind the other's pass — a reader beside a writer waits for the
#: interpreter lock a number of 5 ms switch intervals that depends on how
#: the host schedules the two threads (read p50 6 ms in one hour, 22 ms in
#: the next, same commit), and two readers on this two-CPU machine queue
#: behind one another or not as the host schedules three busy threads
#: (read p50 spread 50-60 % between runs of the same code).  None of that
#: says anything about the code under test.


SPECS = {spec.name: spec for spec in (
    Spec(
        "tc-read",
        _tc(10, True), {"n": 200}, {"n": 20}, (),
        "perfect", recovery_writes=30, replay_ops=600,
    ),
    Spec(
        "tc-write-durable",
        _tc(4, False), {"n": 100}, {"n": 20},
        ("--fsync", "always", "--checkpoint-every", "100"),
        "perfect", recovery_writes=300, replay_ops=160,
    ),
    Spec(
        "game-wf",
        _game(False), {"n": 200, "m": 500}, {"n": 20, "m": 50}, (),
        "wellfounded", recovery_writes=20, replay_ops=160,
    ),
    Spec(
        "hilog-recompute",
        _game(True), {"n": 120, "m": 300}, {"n": 16, "m": 40}, (),
        "perfect", recovery_writes=20, replay_ops=160,
    ),
)}


def check_response(half, op, status, raw):
    """``None`` when the server's reply to ``op`` is what the reference
    says it must be, else a one-line description of the discrepancy.
    Advances ``half`` past the op."""
    if status != 200:
        if op.kind == "write":
            # The server may or may not have applied it; the history is no
            # longer known, so later reads of this client cannot be judged.
            half.apply(op.desc)
        return "%s answered %s" % (op.path, status or "nothing")
    try:
        payload = json.loads(raw.decode("utf-8"))
    except (ValueError, UnicodeDecodeError):
        return "%s answered unreadable JSON" % op.path
    if op.kind == "write":
        half.apply(op.desc)
        field = "inserted" if op.desc[0] == "ins" else "retracted"
        if payload.get(field) != 1:
            return "%s %s: %s=%r, expected 1" % (
                op.path, op.body.decode("utf-8"), field, payload.get(field))
        return None
    expected = half.expected(op.desc)
    for key, value in expected.items():
        got = payload.get(key)
        if key == "answers" and isinstance(got, list):
            got = sorted(got)
        if got != value:
            return "%s %s: %s differs from the reference" % (
                op.path, op.body.decode("utf-8"), key)
    return None
