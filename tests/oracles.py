"""Reference implementations the equivalence suites pin production code to.

Each oracle is the slow, obviously-correct version of one production
callable.  They live here, not in ``src/``, so no caller can select
them; ``tests/test_oracles.py`` checks each against an independent
definition so a reference cannot rot unnoticed.

=========================  =====================================  ======================
oracle                     production callable it pins            pinned in
=========================  =====================================  ======================
``DictDisk``               ``SimulatedDisk`` (arena page store)   ``test_arena.py``
``heapq_merge_stream``     ``repro.storage.merge.merge_stream``   ``test_merge_engine.py``
``argsort_merge``          ``repro.storage.merge.merge_presorted``  ``test_merge_engine.py``
``loop_get_many``          ``RawSeriesFile.get_many``             ``test_fetch_oracle.py``
``loop_read_pages``        ``read_pages`` (native and adapter)    ``test_fetch_oracle.py``
``loop_seismic``           ``repro.series.generators.seismic``    ``test_generators.py``
``per_page_append``        ``RawSeriesFile.append_batch``         ``test_seriesfile.py``
``refine_every_row``       ``repro.core.knn.refine_block``        ``test_refine_order.py``
``refine_kept_rows``       ``repro.core.knn.refine_block``        ``test_refine_lowest_bound_first.py``
``searchsorted_symbols``   ``repro.summaries.sax.sax_from_paa``   ``test_sax.py``
=========================  =====================================  ======================
"""

import heapq

import numpy as np

from fault_injection import replay_read_pages
from repro.series import z_normalize
from repro.series.distance import early_abandon_euclidean_block
from repro.storage import SimulatedDisk
from repro.storage.merge import _open_cursors
from repro.summaries.sax import breakpoints


# ------------------------------------------------------------ page store
class DictPages:
    """Per-page ``dict[int, bytes]`` storage behind the interface of
    ``repro.storage.disk._ExtentArenas``: every page is its own bytes
    object, stored as written (short) and zero-padded on the way out,
    so every read is a copy and nothing is ever contiguous."""

    def __init__(self, page_size: int):
        self.page_size = page_size
        self.pages: "dict[int, bytes]" = {}

    def add(self, first_page: int, n_pages: int, file_end: int | None = None) -> None:
        pass  # unwritten pages simply have no entry, whoever owns them

    def page(self, page_id: int) -> bytes:
        return self.pages.get(page_id, b"").ljust(self.page_size, b"\x00")

    def run_view(self, first_page: int, n_pages: int) -> bytes:
        return b"".join(
            self.page(p) for p in range(first_page, first_page + n_pages)
        )

    def splice(self, first_page: int, data, n_bytes: int) -> None:
        view, ps = memoryview(data), self.page_size
        for i in range(n_bytes // ps):
            self.pages[first_page + i] = bytes(view[i * ps : (i + 1) * ps])


class DictDisk(SimulatedDisk):
    """The copy-level oracle device: a ``SimulatedDisk`` whose pages
    live in :class:`DictPages` instead of extent arenas.  Checks,
    classification, counters and traces are the production code, so
    only storage differs.  ``read_pages`` is the run replay of
    ``fault_injection.replay_read_pages`` — one classified
    ``read_page`` / ``read_run_bytes`` per maximal run —
    which makes this device the oracle for the arena device's
    vectorized classification as well."""

    read_pages = replay_read_pages

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._arenas = DictPages(self.page_size)


#: ``store`` parametrizations: the product device and the oracle device.
DEVICES = {"arena": SimulatedDisk, "dict": DictDisk}


# ----------------------------------------------------------------- merges
def heapq_merge_stream(runs, rec_dtype, buffer_records):
    """Textbook per-record k-way merge (same signature and chunking as
    ``merge_stream``): pop the smallest head, emit one record, refill a
    run's buffer the instant its block's last record is popped."""
    buffer_records = max(1, buffer_records)
    cursors = _open_cursors(runs, rec_dtype, buffer_records)
    heap = [
        (bytes(cursor.block_keys()[0]), i)
        for i, cursor in enumerate(cursors)
        if cursor.buffered()
    ]
    heapq.heapify(heap)
    out = np.empty(buffer_records, dtype=rec_dtype)
    filled = 0
    while heap:
        _, i = heapq.heappop(heap)
        cursor = cursors[i]
        out[filled] = cursor.take(1)[0]
        filled += 1
        if not cursor.buffered():
            cursor.refill()
        if cursor.buffered():
            heapq.heappush(heap, (bytes(cursor.block_keys()[0]), i))
        if filled == buffer_records:
            yield out["k"].copy(), out["v"].copy()
            filled = 0
    if filled:
        yield out["k"][:filled].copy(), out["v"][:filled].copy()


def argsort_merge(runs):
    """Stable merge of resident sorted ``(keys, payloads)`` runs as a
    stable argsort of their concatenation (same signature as
    ``merge_presorted``)."""
    keys = np.concatenate([k for k, _ in runs])
    payloads = np.concatenate([p for _, p in runs])
    order = np.argsort(keys, kind="stable")
    return keys[order], payloads[order]


# ------------------------------------------------------------------ gather
def loop_read_pages(device, pages):
    """``device.read_pages(pages)`` as the loop of single reads it
    replaces: one ``read_page`` per isolated page, one
    ``read_run_bytes`` per maximal run of consecutive ids, in request
    order.  Returns the pages as a list of ``bytes``."""
    pages = [int(p) for p in pages]
    page_size = device.page_size
    out = []
    i = 0
    while i < len(pages):
        j = i + 1
        while j < len(pages) and pages[j] == pages[j - 1] + 1:
            j += 1
        if j - i == 1:
            out.append(bytes(device.read_page(pages[i])))
        else:
            blob = bytes(device.read_run_bytes(pages[i], j - i))
            out.extend(
                blob[k * page_size : (k + 1) * page_size] for k in range(j - i)
            )
        i = j
    return out


def scatter_pages(scatter):
    """The pages of a ``read_pages`` scatter list, as ``bytes``, in
    request order."""
    return [bytes(buffer[row]) for buffer, rows in scatter for row in rows]


def loop_get_many(raw, idxs):
    """Per-record loop gather over a ``RawSeriesFile``.

    Executes the plan of ``RawSeriesFile.get_many`` — same bounds
    check, each distinct page visited once in ascending order, hence
    the same classified ``DiskStats`` — but assembles every record
    with per-record Python slicing.
    """
    idxs = np.asarray(idxs, dtype=np.int64).ravel()
    out = np.empty((len(idxs), raw.length), dtype=np.float32)
    if len(idxs) == 0:
        return out
    raw._check_idxs(idxs)
    if raw.pages_per_series == 1:
        spp = raw.series_per_page
        last_page = -1
        page_floats = np.empty(0, dtype=np.float32)
        for pos in np.argsort(idxs, kind="stable"):
            idx = int(idxs[pos])
            page = idx // spp
            if page != last_page:
                page_data = raw._read_logical(page)
                usable = (len(page_data) // 4) * 4
                page_floats = np.frombuffer(page_data[:usable], dtype=np.float32)
                last_page = page
            offset = (idx % spp) * raw.length
            out[pos] = page_floats[offset : offset + raw.length]
        return out
    # Multi-page records: read each distinct record's page span once,
    # in ascending order, then route rows (duplicates included).
    pps = raw.pages_per_series
    assembled = {}
    for idx in np.unique(idxs):
        first = int(idx) * pps
        blob = b"".join(bytes(raw._read_logical(first + j)) for j in range(pps))
        assembled[int(idx)] = np.frombuffer(
            blob[: raw.record_bytes], dtype=np.float32
        )
    for pos, idx in enumerate(idxs):
        out[pos] = assembled[int(idx)]
    return out


def per_page_append(raw, data):
    """Page-at-a-time append to a ``RawSeriesFile``; returns the first
    new record's index.

    The body ``RawSeriesFile._append_full`` had before an append became
    one ``PagedFile.write_stream``: the partial last page is read (so
    ``verified_reads`` hashes it) and rewritten with its resident
    records, then every new page is written on its own through
    ``PagedFile.write``, one CRC record each; a record that spans pages
    is written one page at a time.  Input checks are not repeated.
    """
    data = np.asarray(data, dtype=np.float32)
    first_idx = raw.n_series
    total = first_idx + len(data)
    if raw.pages_per_series == 1:
        spp = raw.series_per_page
        start = first_idx
        if start % spp:
            page, in_page = start // spp, start % spp
            existing = np.frombuffer(
                raw._read_logical(page),
                dtype=np.float32,
                count=in_page * raw.length,
            )
            take = min(spp - in_page, len(data))
            merged = np.concatenate([existing, data[:take].ravel()])
            del existing
            raw.file.write(page, merged.tobytes())
            data, start = data[take:], start + take
        if len(data):
            n_new_pages = -(-len(data) // spp)
            first_new = start // spp
            if first_new + n_new_pages > raw.file.n_pages:
                raw.file.grow(first_new + n_new_pages - raw.file.n_pages)
            for i in range(n_new_pages):
                chunk = data[i * spp : (i + 1) * spp]
                raw.file.write(first_new + i, chunk.tobytes())
    else:
        pps, ps = raw.pages_per_series, raw.disk.page_size
        needed = total * pps - raw.file.n_pages
        if needed > 0:
            raw.file.grow(needed)
        for i, row in enumerate(data):
            blob = row.tobytes()
            for j in range(pps):
                chunk = blob[j * ps : (j + 1) * ps]
                raw.file.write((first_idx + i) * pps + j, chunk)
    raw.n_series = total
    return first_idx


# ------------------------------------------------------------------ refine
def refine_every_row(query, series, identifiers, rows, heap, bounds=None):
    """Refine of a fetched block (same signature as ``refine_block``):
    one distance per row in ``rows``, against the threshold the heap
    has before the block, each offered on its own in storage order —
    the per-row loop that ``offer_block``'s cut must end equal to.
    ``bounds`` is ignored: every row is refined."""
    distances = early_abandon_euclidean_block(
        query, series[rows], heap.threshold
    )
    for distance, identifier in zip(distances.tolist(), identifiers[rows].tolist()):
        heap.offer(distance, identifier)


def refine_kept_rows(query, series, identifiers, rows, heap, bounds=None):
    """Refine of a fetched block (same signature as ``refine_block``)
    that ignores ``bounds``: every row in ``rows`` is refined in one
    kernel call against the threshold the heap has before the block,
    and offered in one ``offer_block`` — the refine that lowest bound
    first (the k lowest-bound rows, then those the new threshold still
    lets in) must leave the same heap as."""
    distances = early_abandon_euclidean_block(query, series[rows], heap.threshold)
    heap.offer_block(distances, identifiers[rows])


# ---------------------------------------------------------------- datasets
def loop_seismic(n_series, length=256, events_per_series=2.0, seed=None):
    """The seismology stand-in as one loop iteration per event (same
    signature as ``seismic``): five scalar ``rng.uniform`` draws, then
    the packet built and added to its series with fresh temporaries —
    the per-event body the rank-at-a-time, buffered ``seismic`` must
    reproduce byte for byte."""
    rng = np.random.default_rng(seed)
    t = np.arange(length, dtype=np.float64)
    data = 0.1 * rng.standard_normal((n_series, length))
    n_events = rng.poisson(events_per_series, size=n_series)
    for i in range(n_series):
        for _ in range(n_events[i]):
            onset = rng.uniform(0, length * 0.9)
            freq = rng.uniform(0.02, 0.2)
            decay = rng.uniform(0.01, 0.08)
            amp = rng.uniform(0.5, 3.0)
            phase = rng.uniform(0, 2 * np.pi)
            rel = t - onset
            packet = np.where(
                rel >= 0,
                amp * np.exp(-decay * np.clip(rel, 0, None))
                * np.sin(2 * np.pi * freq * rel + phase),
                0.0,
            )
            data[i] += packet
    return z_normalize(data)


# ---------------------------------------------------------------- symbols
def searchsorted_symbols(paa_values, cardinality):
    """SAX symbols by one binary search per value (same signature as
    ``sax_from_paa``): the count of breakpoints strictly below each
    value, NaN sorting above every breakpoint."""
    return np.searchsorted(
        breakpoints(cardinality), np.asarray(paa_values, dtype=np.float64),
        side="left",
    ).astype(np.uint16)
