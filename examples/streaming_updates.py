"""Streaming ingestion: Coconut-LSM vs. Coconut-Tree in-place merges.

Run with:  python examples/streaming_updates.py

The paper's conclusion proposes LSM trees as the way to make Coconut
handle efficient updates; this example runs that design next to the
in-place leaf-merging path of Coconut-Tree on a trickle-style
workload (many small batches, occasional queries) and prints the
trade-off: sequential run flushes vs. per-leaf read-modify-writes on
ingest, one probe per run vs. one probe total at query time.

The third variant wraps the same LSM in :class:`repro.CoconutService`
— the online serving layer: WAL-durable ingest acknowledged batch by
batch, queries admitted through a bounded queue and answered against
snapshot-isolated read-only sessions.  Mid-stream the service object
is lost, as in a process crash: a fresh service over the same disk and
raw file ``restart()``s, recovers every acknowledged row from the WAL
and serves them.
"""

import numpy as np

from repro import (
    CoconutService,
    CoconutTree,
    RawSeriesFile,
    SAXConfig,
    SimulatedDisk,
    random_walk,
)
from repro.core import CoconutLSM

LENGTH = 128
INITIAL = 6_000
BATCHES = 40
BATCH_SIZE = 50
QUERY_EVERY = 10
CONFIG = SAXConfig(series_length=LENGTH, word_length=8, cardinality=256)


def run(kind: str) -> None:
    data = random_walk(INITIAL, length=LENGTH, seed=21)
    disk = SimulatedDisk()
    raw = RawSeriesFile.create(disk, data)
    disk.reset_stats()
    memory = INITIAL * LENGTH * 4 // 100  # 1% of the initial data
    if kind == "Coconut-LSM":
        index = CoconutLSM(disk, memory, config=CONFIG)
    else:
        index = CoconutTree(disk, memory, config=CONFIG, leaf_size=100)
    build = index.build(raw)

    insert_cost = query_cost = 0.0
    n_queries = 0
    for b in range(BATCHES):
        batch = random_walk(BATCH_SIZE, length=LENGTH, seed=100 + b)
        insert_cost += index.insert_batch(batch).total_cost_s
        if (b + 1) % QUERY_EVERY == 0:
            query = random_walk(1, length=LENGTH, seed=500 + b)[0]
            query_cost += index.exact_search(query).total_cost_s
            n_queries += 1

    structure = (
        f"{index.n_runs} runs ({index.n_flushes} flushes, "
        f"{index.n_merges} merges)"
        if kind == "Coconut-LSM"
        else f"{index.leaf_stats()[0]} leaves"
    )
    print(
        f"{kind:13s} build {build.total_cost_s:6.2f} s   "
        f"ingest {insert_cost:6.2f} s   "
        f"{n_queries} queries {query_cost:6.2f} s   -> {structure}"
    )


def run_service() -> None:
    """The online layer: durable acks, recovery after the service is lost."""
    data = random_walk(INITIAL, length=LENGTH, seed=21)
    disk = SimulatedDisk()
    raw = RawSeriesFile(disk, LENGTH)
    raw.append_batch(data)
    memory = INITIAL * LENGTH * 4 // 100
    svc = CoconutService(disk, raw, memory, sax_config=CONFIG)
    svc.bootstrap()

    crash_at = BATCHES // 2
    acked = raw.n_series
    n_queries = 0
    for b in range(BATCHES):
        if b == crash_at:
            # The service is lost mid-stream; the disk and the raw file
            # survive.  A fresh service recovers from the WAL on them.
            del svc
            svc = CoconutService(disk, raw, memory, sax_config=CONFIG)
            svc.restart()
            # The newest acknowledged row is found at distance zero.
            newest = random_walk(BATCH_SIZE, length=LENGTH, seed=99 + b)[-1]
            ticket = svc.query(newest, mode="exact", k=1)
            assert ticket.snapshot_series == acked
            assert ticket.knn_ids == [acked - 1], ticket.knn_ids
            print(
                f"  batch {b}: a fresh service recovered and serves all "
                f"{acked} acknowledged rows"
            )
            n_queries += 1
        batch = random_walk(BATCH_SIZE, length=LENGTH, seed=100 + b)
        receipt = svc.ingest(batch, expected_first=acked)
        acked = receipt.first_index + receipt.n_rows
        if (b + 1) % QUERY_EVERY == 0:
            query = random_walk(1, length=LENGTH, seed=500 + b)[0]
            ticket = svc.query(query, mode="exact", k=1)
            assert ticket.status == "served"
            n_queries += 1
    svc.stop(drain=True)

    assert acked == raw.n_series == INITIAL + BATCHES * BATCH_SIZE
    stats = svc.stats_snapshot()
    print(
        f"{'CoconutService':13s} ingest {BATCHES} acked batches   "
        f"{n_queries} queries served   "
        f"-> {stats['lsm']['runs']} runs "
        f"({stats['lsm']['flushes']} flushes, "
        f"{stats['lsm']['merges']} merges), "
        f"{stats['restarts']} restart, every ack recovered"
    )


def main() -> None:
    print(
        f"{INITIAL} series bulk-loaded, then {BATCHES} batches of "
        f"{BATCH_SIZE} with a query every {QUERY_EVERY} batches "
        f"(memory = 1% of data)\n"
    )
    run("Coconut-Tree")
    run("Coconut-LSM")
    print(
        "\nLSM runs absorb the trickle with sequential flushes; the "
        "balanced tree pays per-leaf read-modify-writes per batch but "
        "answers queries from a single structure.\n"
    )
    run_service()
    print(
        "\nThe service rides the same LSM: each ingest batch is "
        "acknowledged only after its WAL frame is durable, queries "
        "answer from snapshot-isolated sessions, and when the service "
        "is lost a fresh one's restart() brings back every "
        "acknowledged row."
    )


if __name__ == "__main__":
    main()
