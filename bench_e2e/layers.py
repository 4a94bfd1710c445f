"""The layer tables: which callables get a span, and which per-layer
metrics are derived from those spans.

``TARGETS`` is the only list the tracer patches.  Each row names a
callable of one ``repro`` module and the span recorded around it.
Rows name public callables; the three marked *private* exist because
the layer has no public boundary at that point (memtable flush and
compaction happen inside ``insert_batch``, a served batch inside the
server thread).  A row whose target a later change removes does
not break the benchmark: the tracer warns and the metrics derived from
it read 0.

``SPAN_METRICS`` derives one per-layer metric from one span name:
the self time of those spans inside operations of the given kinds,
as a total for the traced round (``per=None``) or divided by the
number of operations of kind ``per``.
"""

from __future__ import annotations

from typing import Callable, NamedTuple


class Target(NamedTuple):
    module: str  # below ``repro.``
    attr: str  # ``function`` or ``Class.method``
    span: str
    payload: "Callable | None" = None  # (args, result) -> value kept on the span


def _stream_bytes(args, _out):
    return len(args[1])  # PagedFile.write_stream(self, data, at_page)


def _page_bytes(args, _out):
    return len(args[2])  # PagedFile.write(self, logical, data)


def _submitted_times(_args, tickets):
    return [ticket.submitted_s for ticket in tickets]


TARGETS: list[Target] = [
    # storage.seriesfile — the raw series file (scan, gather, append)
    Target("storage.seriesfile", "RawSeriesFile.scan", "storage.seriesfile.scan"),
    Target("storage.seriesfile", "RawSeriesFile.get_many", "storage.seriesfile.get_many"),
    Target("storage.seriesfile", "RawSeriesFile.append_batch", "storage.seriesfile.append"),
    # summaries.sax / core.invsax — summarize and the sortable key
    Target("summaries.sax", "sax_words", "summaries.sax.words"),
    Target("summaries.sax", "mindist_paa_to_words", "summaries.sax.mindist"),
    Target("core.invsax", "interleave_words", "core.invsax.interleave"),
    Target("core.invsax", "deinterleave_keys", "core.invsax.deinterleave"),
    # storage.external_sort / storage.merge — sort and k-way merge
    Target("storage.external_sort", "ExternalSorter.sort", "storage.external_sort.sort"),
    Target("storage.merge", "merge_stream", "storage.merge.merge"),
    Target("storage.merge", "merge_presorted", "storage.merge.merge"),
    # storage.pager — every page-store write and read goes through here
    Target("storage.pager", "PagedFile.write_stream", "storage.pager.write", _stream_bytes),
    Target("storage.pager", "PagedFile.write", "storage.pager.write", _page_bytes),
    Target("storage.pager", "PagedFile.read_stream", "storage.pager.read"),
    Target("storage.pager", "PagedFile.read", "storage.pager.read"),
    # core.coconut_tree / core.coconut_trie — the indexes
    Target("core.coconut_tree", "CoconutTree.build", "core.coconut_tree.build"),
    Target("core.coconut_tree", "CoconutTree.approximate_search", "core.coconut_tree.approx"),
    Target("core.coconut_tree", "CoconutTree.exact_search", "core.coconut_tree.exact"),
    Target("core.coconut_tree", "CoconutTree.query_batch", "core.coconut_tree.query_batch"),
    Target("core.coconut_trie", "CoconutTrie.build", "core.coconut_trie.build"),
    # core.sims / series.distance — lower-bound scan driver and refine
    Target("core.sims", "sims_scan", "core.sims.scan"),
    Target("series.distance", "early_abandon_euclidean_block", "series.distance.refine"),
    # parallel — planner and the shared-scan batch engine
    Target("parallel.sched", "plan_query_batch", "parallel.sched.plan"),
    Target("parallel.batch", "batched_exact_knn", "parallel.batch.batch"),
    # core.lsm / core.wal — write path
    Target("core.lsm", "CoconutLSM.build", "core.lsm.build"),
    Target("core.lsm", "CoconutLSM.insert_batch", "core.lsm.insert"),
    Target("core.lsm", "CoconutLSM._flush_memtable", "core.lsm.flush"),  # private
    Target("core.lsm", "CoconutLSM._maybe_compact", "core.lsm.compact"),  # private
    Target("core.wal", "WriteAheadLog.append_meta", "core.wal.append"),
    Target("core.wal", "WriteAheadLog.append_batch", "core.wal.append"),
    Target("core.wal", "WriteAheadLog.append_run", "core.wal.append"),
    Target("core.wal", "WriteAheadLog.append_compact", "core.wal.append"),
    # storage.integrity — CRC record / verify / scrub
    Target("storage.integrity", "ChecksumMap.record_page", "storage.integrity.record"),
    Target("storage.integrity", "ChecksumMap.record_run", "storage.integrity.record"),
    Target("storage.integrity", "verify_view", "storage.integrity.verify"),
    Target("storage.integrity", "Scrubber.step", "storage.integrity.scrub"),
    Target("storage.integrity", "Scrubber.sweep", "storage.integrity.scrub"),
    # service — admission, snapshot pinning, ingest, serving
    Target("service.admission", "AdmissionQueue.collect", "service.admission.collect", _submitted_times),
    Target("service.snapshot", "ServiceSnapshot.__init__", "service.snapshot.pin"),
    Target("service.service", "CoconutService.bootstrap", "service.service.bootstrap"),
    Target("service.service", "CoconutService.ingest", "service.service.ingest"),
    Target("service.service", "CoconutService.submit", "service.service.submit"),
    Target(  # private
        "service.service", "CoconutService._serve_batch", "service.service.serve_batch"
    ),
    Target("service.service", "CoconutService.restart", "service.service.restart"),
]

# Operation kinds the driver declares (see pipeline.py).
BUILD_TREE = "build.tree"
BUILD_SPILL = "build.full_spill"
BUILD_FITS = "build.full_fits"
BUILD_TRIE = "build.trie"
BUILDS = (BUILD_TREE, BUILD_SPILL, BUILD_FITS)
APPROX = "query.approx"
EXACT = "query.exact"
BATCH = "query.batch"
QUERIES = (APPROX, EXACT, BATCH)
INGEST = "serve.ingest"  # Phase A, closed loop
MIXED_INGEST = "mixed.ingest"  # Phase B feeder thread
MIXED_SUBMIT = "mixed.submit"  # Phase B client thread
SERVER = "coconut-serve"  # spans on the service's own thread carry its name
RESTART = "serve.restart"
#: Kinds declared on the benchmark's main thread: their root spans are
#: what the traced wall is attributed to.
DRIVER_OPS = BUILDS + (BUILD_TRIE,) + QUERIES + (INGEST, MIXED_SUBMIT, RESTART)
EVERYWHERE = DRIVER_OPS + (MIXED_INGEST, SERVER)


#: The span that marks one operation of a kind (the divisor of ``per``).
OP_SPAN = {
    APPROX: "core.coconut_tree.approx",
    EXACT: "core.coconut_tree.exact",
    BATCH: "core.coconut_tree.query_batch",
    INGEST: "service.service.ingest",
    SERVER: "service.service.serve_batch",
}


class SpanMetric(NamedTuple):
    name: str
    span: str
    ops: tuple  # operation kinds the self time is summed over
    per: "str | None" = None  # divide by the number of OP_SPAN[per] spans


SPAN_METRICS: list[SpanMetric] = [
    # build: summarize -> sort/merge -> leaf packing -> page store
    SpanMetric("storage.seriesfile.scan_s", "storage.seriesfile.scan", BUILDS),
    SpanMetric("summaries.sax.words_s", "summaries.sax.words", BUILDS),
    SpanMetric("core.invsax.interleave_s", "core.invsax.interleave", BUILDS),
    SpanMetric("core.invsax.deinterleave_s", "core.invsax.deinterleave", (BUILD_TREE,)),
    SpanMetric("storage.external_sort.sort_s", "storage.external_sort.sort", (BUILD_SPILL,)),
    SpanMetric("storage.merge.merge_s", "storage.merge.merge", (BUILD_SPILL,)),
    SpanMetric("core.coconut_tree.build_self_s", "core.coconut_tree.build", (BUILD_FITS,)),
    SpanMetric("core.coconut_trie.build_s", "core.coconut_trie.build", (BUILD_TRIE,)),
    SpanMetric("storage.pager.write_s", "storage.pager.write", EVERYWHERE),
    SpanMetric("storage.pager.read_s", "storage.pager.read", EVERYWHERE),
    # query: directory probe, lower-bound scan, gather, refine
    SpanMetric("core.coconut_tree.approx_s", "core.coconut_tree.approx", (APPROX,), APPROX),
    SpanMetric("summaries.sax.mindist_s", "summaries.sax.mindist", (EXACT,), EXACT),
    SpanMetric("storage.seriesfile.get_many_s", "storage.seriesfile.get_many", (EXACT,), EXACT),
    SpanMetric("series.distance.refine_s", "series.distance.refine", (EXACT,), EXACT),
    SpanMetric("core.sims.self_s", "core.sims.scan", (EXACT,), EXACT),
    SpanMetric("parallel.batch.batch_s", "parallel.batch.batch", (BATCH,), BATCH),
    SpanMetric("parallel.sched.plan_s", "parallel.sched.plan", (BATCH,), BATCH),
    # serve, write path (Phase A, per ingest call)
    SpanMetric("storage.seriesfile.append_s", "storage.seriesfile.append", (INGEST,), INGEST),
    SpanMetric("core.lsm.insert_s", "core.lsm.insert", (INGEST,), INGEST),
    SpanMetric("core.lsm.flush_s", "core.lsm.flush", (INGEST,), INGEST),
    SpanMetric("core.lsm.compact_s", "core.lsm.compact", (INGEST,), INGEST),
    SpanMetric("core.wal.append_s", "core.wal.append", (INGEST,), INGEST),
    SpanMetric("storage.integrity.record_s", "storage.integrity.record", (INGEST,), INGEST),
    SpanMetric("storage.integrity.scrub_s", "storage.integrity.scrub", (INGEST,), INGEST),
    SpanMetric("service.snapshot.pin_s", "service.snapshot.pin", (INGEST,), INGEST),
    # serve, read path (Phase B server thread, per served batch)
    SpanMetric("service.service.serve_batch_s", "service.service.serve_batch", (SERVER,), SERVER),
    SpanMetric("storage.integrity.verify_s", "storage.integrity.verify", (SERVER,), SERVER),
    SpanMetric("serve.deinterleave_s", "core.invsax.deinterleave", (SERVER,), SERVER),
    SpanMetric("serve.mindist_s", "summaries.sax.mindist", (SERVER,), SERVER),
    SpanMetric("serve.get_many_s", "storage.seriesfile.get_many", (SERVER,), SERVER),
    SpanMetric("serve.refine_s", "series.distance.refine", (SERVER,), SERVER),
]
