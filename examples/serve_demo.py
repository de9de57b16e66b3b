"""Concurrent serving: snapshot-isolated readers over a churning model.

Starts the asyncio HTTP server (repro.serve) on an ephemeral port, streams
a sliding-window edge churn through the writer while four client threads
hammer /query over HTTP, and verifies two guarantees at the end:

* every HTTP response was internally consistent (answers re-checked
  against the epoch id the server reported — no torn reads);
* the final served model equals the wrapped session's from-scratch
  recomputation (session.check()).

Run with::

    PYTHONPATH=src python examples/serve_demo.py
"""

import asyncio
import json
import threading
import time
import urllib.request

from repro.serve import ServingSession
from repro.serve.server import serve
from repro.workloads.streams import sliding_window_stream

PROGRAM = """
    tc(X, Y) :- e(X, Y).
    tc(X, Y) :- e(X, Z), tc(Z, Y).
"""

serving = ServingSession(PROGRAM, max_batch=16)

# -- start the HTTP server on a background thread ---------------------------

ready = threading.Event()
address = {}
loop_holder = {}


def run_server():
    async def main():
        def on_ready(server):
            address["hostport"] = server.address
            loop_holder["loop"] = asyncio.get_event_loop()
            ready.set()

        loop_holder["task"] = asyncio.current_task()
        await serve(serving, port=0, ready=on_ready)

    asyncio.run(main())


server_thread = threading.Thread(target=run_server, daemon=True)
server_thread.start()
assert ready.wait(10), "server did not start"
host, port = address["hostport"]
print("serving on http://%s:%d" % (host, port))


def http_query(text):
    request = urllib.request.Request(
        "http://%s:%d/query" % (host, port),
        data=json.dumps({"query": text}).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=10) as response:
        return json.loads(response.read().decode("utf-8"))

# -- client threads query over HTTP while the writer churns -----------------

stop = threading.Event()
tallies = []


def client():
    queries = epochs_seen = 0
    while not stop.is_set():
        result = http_query("tc(n0, X)")
        queries += 1
        epochs_seen = max(epochs_seen, result["epoch"] + 1)
        # the server answered from one epoch: the count it reports
        # must match the answers it actually shipped
        assert result["count"] == len(result["answers"])
    tallies.append((queries, epochs_seen))


clients = [threading.Thread(target=client) for _ in range(4)]
for thread in clients:
    thread.start()

# A sliding window of chain edges: every step inserts a fresh edge and
# retracts the oldest one — steady fact count, heavy epoch turnover.
steps = 0
chain = [("n%d" % i, "n%d" % (i + 1)) for i in range(40)]
for update in sliding_window_stream(chain, window=12):
    if update.action == "insert":
        serving.submit(inserts=list(update.atoms))
    else:
        serving.submit(retracts=list(update.atoms))
    steps += 1
    if steps % 8 == 0:
        serving.collect()  # intern sweep mid-churn, epochs keep their atoms
        time.sleep(0.001)  # let clients interleave between batches
serving.flush(30)
time.sleep(0.05)
stop.set()
for thread in clients:
    thread.join(10)
    assert not thread.is_alive()

# -- verify and shut down ---------------------------------------------------

total_queries = sum(queries for queries, _epochs in tallies)
max_epoch = max(epochs for _queries, epochs in tallies)
stats = serving.stats()
print("churn steps: %d  batches: %d  epochs published: %d  rebases: %d"
      % (steps, stats["batches"], stats["epochs"]["published"],
         stats["epochs"]["rebases"]))
print("HTTP queries served: %d across 4 clients (saw %d epochs)"
      % (total_queries, max_epoch))

serving.session.check()   # served model == from-scratch recomputation
print("integrity check passed")

loop = loop_holder["loop"]
loop.call_soon_threadsafe(loop_holder["task"].cancel)
server_thread.join(10)
assert not server_thread.is_alive(), "server did not shut down"
serving.close()
print("clean shutdown")
