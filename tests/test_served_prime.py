"""A served exact ticket is primed, never seeded from the approximate probe.

``service/snapshot.py::_answer_on`` runs an exact batch unseeded, so
every heap of ``k <= REFINE_FIRST_ROWS`` starts short and the prime pass
(``repro.parallel.batch.prime_short_heaps``) refines its 64 lowest-bound
rows before the walk; it primes whenever the candidate union holds more
than ``REFINE_FIRST_ROWS`` rows.  Pinned here:

* **Exact, ties by id** — across services whose candidate union (every
  row: an unseeded heap's threshold is ``inf``) is at most 64 rows, one
  fetch block, or more than one, with duplicate rows tying the k-th
  distance and ``k`` in {1, 3, 64, 65, n, n + 5}, served exact ids and
  distances equal brute force under the ``(distance, id)`` order.
* **The saving** — on an 8 000-row random-walk service in the
  ``query_rw`` geometry an exact ticket reads no run page and, in the
  median, fewer than 100 raw pages (172.5 when it was seeded from the
  probe, which read a run window per run and gathered ~32 records).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import RawSeriesFile, SimulatedDisk, make_dataset
from repro.core.sims import SIMS_BLOCK_RECORDS
from repro.series import euclidean_batch, query_workload, random_walk
from repro.service import CoconutService, ServiceConfig
from repro.summaries import SAXConfig
from test_served_verification import page_kinds, pages_read
from test_service import _lex_knn

CONFIGS = {
    "loose": SAXConfig(series_length=16, word_length=4, cardinality=8),
    "tight": SAXConfig(series_length=16, word_length=16, cardinality=256),
}
#: Rows per size class of the candidate union.
UNION_SIZES = {
    "at most 64": (6, 64),
    "one block": (65, 400),
    "more than one block": (SIMS_BLOCK_RECORDS + 1, SIMS_BLOCK_RECORDS + 200),
}
MEMTABLE_RECORDS = 256


def serve(config, rows, n_base, n_ingests, verified):
    """A service over ``rows``: ``n_base`` bootstrapped, the rest in
    ``n_ingests`` ingest calls (runs and a memtable)."""
    disk = SimulatedDisk(page_size=2048)
    raw = RawSeriesFile.create(disk, rows[:n_base])
    svc = CoconutService(
        disk,
        raw,
        MEMTABLE_RECORDS * 2 * (config.key_bytes + 8),
        sax_config=config,
        config=ServiceConfig(verified_reads=verified),
    )
    svc.bootstrap()
    for part in np.array_split(rows[n_base:], n_ingests):
        if len(part):
            svc.ingest(part)
    return svc


@settings(max_examples=100, deadline=None)
@given(
    union=st.sampled_from(sorted(UNION_SIZES)),
    size=st.floats(0, 1),
    n_ties=st.integers(1, 5),
    k_choice=st.sampled_from(["1", "3", "64", "65", "n", "n+5"]),
    bounds=st.sampled_from(sorted(CONFIGS)),
    base_share=st.floats(0.1, 1),
    n_ingests=st.integers(1, 6),
    verified=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_property_served_exact_answers_equal_brute_force_ties_by_id(
    union, size, n_ties, k_choice, bounds, base_share, n_ingests, verified, seed
):
    config = CONFIGS[bounds]
    low, high = UNION_SIZES[union]
    n = low + int(size * (high - low))
    rng = np.random.default_rng(seed)
    walks = random_walk(n - n_ties, length=16, seed=seed).astype(np.float32)
    queries = random_walk(2, length=16, seed=seed + 1).astype(np.float64)
    queries[0] = walks[rng.integers(0, len(walks))]
    k = {"n": n, "n+5": n + 5}.get(k_choice) or int(k_choice)
    # The row at the first query's k-th distance is stored n_ties + 1
    # times, so the cut there is a tie decided by id.
    ranked = np.argsort(euclidean_batch(queries[0], walks), kind="stable")
    kth = ranked[min(k, len(walks)) - 1]
    rows = np.concatenate([walks, np.repeat(walks[kth : kth + 1], n_ties, axis=0)])
    rows = rows[rng.permutation(n)]
    svc = serve(config, rows, max(1, int(base_share * n)), n_ingests, verified)
    for query in queries:
        ticket = svc.query(query, mode="exact", k=k)
        assert ticket.status == "served" and not ticket.degraded
        assert ticket.snapshot_series == n
        assert (list(ticket.knn_ids), ticket.knn_distances) == _lex_knn(rows, query, k)


def test_a_served_exact_ticket_reads_no_run_page_and_under_100_raw_pages():
    """2 000 bootstrapped rows plus twelve 500-row ingests of length 256
    on 8 KiB pages (three runs and a memtable), ``k = 3``: the median
    ticket reads ~66 raw pages, nearly all of them the prime's."""
    config = SAXConfig(series_length=256, word_length=16, cardinality=256)
    rows = make_dataset("randomwalk", 8_000, length=256, seed=7)
    disk = SimulatedDisk(page_size=8192, trace=True)
    raw = RawSeriesFile.create(disk, rows[:2_000])
    svc = CoconutService(
        disk,
        raw,
        2_048 * 2 * (config.key_bytes + 8),
        sax_config=config,
        config=ServiceConfig(verified_reads=True),
        size_ratio=4,
    )
    svc.bootstrap()
    for lo in range(2_000, len(rows), 500):
        svc.ingest(rows[lo : lo + 500])
    snapshot = svc.current_snapshot()
    assert len(snapshot._runs) >= 2 and snapshot._mem_keys
    run_pages, raw_pages = page_kinds(snapshot, raw)
    read_per_ticket = []
    for query in query_workload("randomwalk", 20, length=256, seed=7):
        mark = len(snapshot.shard.trace)
        ticket = svc.query(query, mode="exact", k=3)
        assert ticket.status == "served" and not ticket.degraded
        assert list(ticket.knn_ids) == _lex_knn(rows, query, 3)[0]
        read = pages_read(snapshot.shard.trace[mark:])
        assert read <= raw_pages and not read & run_pages
        read_per_ticket.append(len(read))
    assert np.median(read_per_ticket) < 100
