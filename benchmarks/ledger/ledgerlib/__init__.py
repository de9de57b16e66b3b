"""The performance ledger's library: workload generators and plain-Python
references (:mod:`.workloads`), server process handling
(:mod:`.serverproc`), the closed-loop load generator (:mod:`.loadgen`),
the end-to-end phases (:mod:`.phases`) and the traced per-layer replay
(:mod:`.layers`).  ``src/repro`` is a black box to everything here except
:mod:`.layers` and :mod:`.batch_eval`, which call its public functions."""
