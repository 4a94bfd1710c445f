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
``refine_every_row``       ``repro.core.knn.refine_block``        ``test_refine_order.py``
``searchsorted_symbols``   ``repro.summaries.sax.sax_from_paa``   ``test_sax.py``
=========================  =====================================  ======================
"""

import heapq

import numpy as np

from repro.series.distance import early_abandon_euclidean_block
from repro.storage import SimulatedDisk
from repro.storage.disk import _DerivedVerbs
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

    def add(self, first_page: int, n_pages: int, grow_tail: bool = False) -> None:
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
    only storage differs.  ``read_pages`` is the run-replay adapter —
    one classified ``read_page`` / ``read_run_bytes`` per maximal run —
    which makes this device the oracle for the arena device's
    vectorized classification as well."""

    read_pages = _DerivedVerbs.read_pages

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


# ------------------------------------------------------------------ refine
def refine_every_row(query, series, identifiers, rows, bounds, heap):
    """Refine of a fetched block that ignores the lower bounds (same
    signature as ``refine_block``): one distance per row in ``rows``,
    against the threshold the heap has before the block, offered in
    one call in storage order."""
    distances = early_abandon_euclidean_block(
        query, series[rows], heap.threshold
    )
    heap.offer_block(distances, identifiers[rows])


# ---------------------------------------------------------------- symbols
def searchsorted_symbols(paa_values, cardinality):
    """SAX symbols by one binary search per value (same signature as
    ``sax_from_paa``): the count of breakpoints strictly below each
    value, NaN sorting above every breakpoint."""
    return np.searchsorted(
        breakpoints(cardinality), np.asarray(paa_values, dtype=np.float64),
        side="left",
    ).astype(np.uint16)
