"""The paper's evaluation claims (Figs. 8-10 and the ablations), one row each.

Every row is figure -> sweep -> inequality, and reads only quantities the
simulated disk makes deterministic: classified page counts (``DiskStats``),
``simulated_io_ms``, index bytes, leaf count and fill, visited records,
pruned fractions and answer distances.  Nothing here reads a clock, so two
runs measure identical numbers and no row passes or fails on machine load.
Fig. 7, the value histograms, is ``tests/test_generators.py``.

Builds are cached at module scope, keyed by (index, dataset, memory), so
figures that sweep the same build share it.  A query workload is cached by
index, dataset, mode and seed radius, and builds its own index: ADS+
materializes leaves on first visit and the Coconut indexes load their
summary column on first use, so a shared index would make one figure's
numbers depend on which figure ran first.

A claim that does not hold at test scale is a strict ``xfail`` whose reason
says what was measured instead; it is not weakened until it passes.
``docs/figures.md`` lists every row with its measured values and margin.
"""

from __future__ import annotations

import operator
from functools import lru_cache
from typing import NamedTuple

import numpy as np
import pytest

from repro.core import CoconutLSM, CoconutTree, interleave_words
from repro.series import euclidean, random_walk
from repro.storage import UNIFORM_COST, RawSeriesFile, SimulatedDisk
from repro.summaries import SAXConfig, sax_words

from rig import (
    INDEX_FACTORIES,
    PAGE_SIZE,
    DatasetSpec,
    default_config,
    make_environment,
    mixed_workload,
)

RW = DatasetSpec("randomwalk", n_series=10_000, length=128, seed=7)
RW_8A = DatasetSpec("randomwalk", n_series=4_000, length=128, seed=7)
ASTRONOMY = DatasetSpec("astronomy", n_series=2_000, length=128, seed=11)
SEISMIC = DatasetSpec("seismic", n_series=2_000, length=128, seed=13)
N_QUERIES = 25
#: Fig. 8d / 8e sweep the data size at a fixed budget: twice the smallest
#: dataset (8d), a quarter of it (8e).
FIXED_8D = 1_000 * 128 * 4 * 2
FIXED_8E = 2_000 * 128 * 4 // 4


def budget(spec: DatasetSpec, fraction: float) -> int:
    """A memory budget as a fraction of the raw data (at least one page)."""
    return max(4096, int(spec.raw_bytes * fraction))


# ------------------------------------------------------------------ sweeps
class Build(NamedTuple):
    sim_ms: float
    random_io: int
    uniform_ms: float  # the same accesses with random priced as sequential
    index_bytes: int
    n_leaves: int
    fill: float


class Workload(NamedTuple):
    """Per-query means over one workload, plus every answer distance."""

    sim_ms: float
    random_reads: float
    visited: float
    pruned: float
    distances: tuple


@lru_cache(maxsize=None)
def build(key: str, spec: DatasetSpec, memory: int) -> Build:
    env = make_environment(key, spec, memory)
    report = env.index.build(env.raw)
    return Build(
        sim_ms=report.simulated_io_ms,
        random_io=report.io.random_reads + report.io.random_writes,
        uniform_ms=report.io.io_ms(UNIFORM_COST),
        index_bytes=report.index_bytes,
        n_leaves=report.n_leaves,
        fill=report.avg_leaf_fill,
    )


@lru_cache(maxsize=None)
def workload(
    key: str, spec: DatasetSpec, mode: str, radius: int | None, fraction: float
) -> Workload:
    env = make_environment(key, spec, budget(spec, fraction))
    env.index.build(env.raw)
    search = getattr(env.index, f"{mode}_search")
    kwargs = {} if radius is None else {"radius_leaves": radius}
    results = [search(query, **kwargs) for query in spec.queries(N_QUERIES)]
    return Workload(
        sim_ms=float(np.mean([r.simulated_io_ms for r in results])),
        random_reads=float(np.mean([r.io.random_reads for r in results])),
        visited=float(np.mean([r.visited_records for r in results])),
        pruned=float(np.mean([r.pruned_fraction for r in results])),
        distances=tuple(r.distance for r in results),
    )


def b(key: str, fraction: float, spec: DatasetSpec = RW) -> Build:
    return build(key, spec, budget(spec, fraction))


def sized(key: str, n: int, memory: int) -> Build:
    return build(key, RW.scaled(n), memory)


def long(key: str, length: int) -> Build:
    return b(key, 0.02, DatasetSpec("randomwalk", 4_000, length, 7))


def exact(key: str, spec: DatasetSpec = RW, radius: int | None = None,
          fraction: float = 0.25) -> Workload:
    return workload(key, spec, "exact", radius, fraction)


def approx(key: str, spec: DatasetSpec = RW, radius: int | None = None) -> Workload:
    return workload(key, spec, "approximate", radius, 0.25)


def beats(challenger: Workload, incumbent: Workload) -> float:
    """Share of queries answered at least as close as the incumbent did."""
    pairs = zip(challenger.distances, incumbent.distances)
    return float(np.mean([mine <= theirs for mine, theirs in pairs]))


def complete(key: str, spec: DatasetSpec, fraction: float) -> float:
    """Figs. 10b/10c: the build plus every exact query, simulated ms."""
    return b(key, fraction, spec).sim_ms + N_QUERIES * exact(key, spec, None, fraction).sim_ms


@lru_cache(maxsize=None)
def mixed_updates(key: str, batch_size: int) -> float:
    """Fig. 10a: bulk-load half of 8 000 series, insert the rest in
    batches with 10 exact queries interleaved; total simulated ms."""
    spec = DatasetSpec("randomwalk", 8_000, 128, 7)
    initial, events = mixed_workload(spec, 0.5, batch_size, n_queries=10)
    disk = SimulatedDisk(page_size=PAGE_SIZE)
    raw = RawSeriesFile.create(disk, initial)
    disk.reset_stats()
    index = INDEX_FACTORIES[key](disk, budget(spec, 0.002), spec.length)
    total = index.build(raw).simulated_io_ms
    for event in events:
        step = index.insert_batch if event.kind == "insert" else index.exact_search
        total += step(event.payload).simulated_io_ms
    return total


class Updates(NamedTuple):
    insert_ms: float
    total_ms: float


@lru_cache(maxsize=None)
def lsm_updates(kind: str, batch_size: int) -> Updates:
    """LSM ablation: 12 insert batches, then 8 exact queries, over 6 000
    series at a 1 % budget."""
    spec = DatasetSpec("randomwalk", 6_000, 128, 7)
    disk = SimulatedDisk(page_size=PAGE_SIZE)
    raw = RawSeriesFile.create(disk, spec.generate())
    disk.reset_stats()
    memory, config = spec.raw_bytes // 100, default_config(spec.length)
    if kind == "LSM":
        index = CoconutLSM(disk, memory, config=config)
    else:
        index = CoconutTree(disk, memory, config=config, leaf_size=100)
    built = index.build(raw).simulated_io_ms
    inserted = sum(
        index.insert_batch(random_walk(batch_size, spec.length, seed=100 + i)).simulated_io_ms
        for i in range(12)
    )
    queried = sum(index.exact_search(q).simulated_io_ms for q in spec.queries(8))
    return Updates(inserted, built + inserted + queried)


class Filled(NamedTuple):
    n_leaves: int
    index_bytes: int
    leaves_grown: int  # leaves one 800-series insert adds


@lru_cache(maxsize=None)
def filled(fill: float) -> Filled:
    """Fill-factor ablation: 8 000 series, ample memory."""
    spec = DatasetSpec("randomwalk", 8_000, 128, 7)
    disk = SimulatedDisk(page_size=PAGE_SIZE)
    raw = RawSeriesFile.create(disk, spec.generate())
    index = CoconutTree(disk, spec.raw_bytes, config=default_config(spec.length),
                        leaf_size=100, fill_factor=fill)
    report = index.build(raw)
    index.insert_batch(random_walk(800, length=spec.length, seed=99))
    grown = index.leaf_stats()[0] - report.n_leaves
    return Filled(report.n_leaves, report.index_bytes, grown)


class Ordering(NamedTuple):
    neighbor: float  # mean distance between neighbours in sorted order
    leaf_radius: float  # mean distance from a 100-series run's first to the rest


@lru_cache(maxsize=None)
def ordered(name: str) -> Ordering:
    """Sortability ablation: 6 000 random walks in one sort order."""
    data = DatasetSpec("randomwalk", 6_000, 128, 7).generate().astype(np.float64)
    config = SAXConfig(series_length=128, word_length=8, cardinality=256)
    words = sax_words(data, config)
    order = {
        "invsax": lambda: np.argsort(interleave_words(words, config), kind="stable"),
        "sax": lambda: np.lexsort(words.T[::-1]),
        "unsorted": lambda: np.arange(len(data)),
    }[name]()
    sample = np.random.default_rng(3).choice(len(data) - 1, size=600, replace=False)
    neighbor = np.mean([euclidean(data[order[i]], data[order[i + 1]]) for i in sample])
    radii = [
        np.mean([euclidean(data[order[s]], data[i]) for i in order[s + 1 : s + 100]])
        for s in range(0, len(order) - 100, 1_000)
    ]
    return Ordering(float(neighbor), float(np.mean(radii)))


# --------------------------------------------------------------- the table
# name -> (lhs, op, rhs), evaluated lazily.  Names start with the figure.
CLAIMS = {
    # Fig. 8a: materialized builds, 4 000 series, memory 100 / 20 / 5 %.
    **{
        f"8a-ctreefull-fewer-random-io-than-{rival}-{pct:g}": lambda rival=rival, pct=pct: (
            b("CTreeFull", pct, RW_8A).random_io, "<", b(rival, pct, RW_8A).random_io)
        for pct in (1.0, 0.2, 0.05)
        for rival in ("ADSFull", "iSAX2.0", "DSTree", "R-tree")
    },
    **{
        f"8a-ctreefull-cheaper-build-than-{rival}-{pct:g}": lambda rival=rival, pct=pct: (
            b("CTreeFull", pct, RW_8A).sim_ms, "<", b(rival, pct, RW_8A).sim_ms)
        for pct in (1.0, 0.2, 0.05)
        for rival in ("ADSFull", "iSAX2.0", "DSTree", "R-tree", "Vertical")
    },
    "8a-adsfull-over-4x-ctreefull-0.05": lambda: (
        b("ADSFull", 0.05, RW_8A).sim_ms, ">", 4 * b("CTreeFull", 0.05, RW_8A).sim_ms),
    "8a-adsfull-degrades-more": lambda: (
        b("ADSFull", 0.05, RW_8A).sim_ms - b("ADSFull", 1.0, RW_8A).sim_ms, ">",
        b("CTreeFull", 0.05, RW_8A).sim_ms - b("CTreeFull", 1.0, RW_8A).sim_ms),
    "8a-adsfull-degrades-more-relative": lambda: (
        b("ADSFull", 0.05, RW_8A).sim_ms / b("ADSFull", 1.0, RW_8A).sim_ms, ">",
        b("CTreeFull", 0.05, RW_8A).sim_ms / b("CTreeFull", 1.0, RW_8A).sim_ms),
    "8a-ctreefull-degrades-monotonically-0.2": lambda: (
        b("CTreeFull", 1.0, RW_8A).sim_ms, "<=", b("CTreeFull", 0.2, RW_8A).sim_ms),
    "8a-ctreefull-degrades-monotonically-0.05": lambda: (
        b("CTreeFull", 0.2, RW_8A).sim_ms, "<=", b("CTreeFull", 0.05, RW_8A).sim_ms),
    # Fig. 8b: secondary builds, 10 000 series, memory 100 / 5 / 1 %.
    **{
        f"8b-ctree-random-io-at-most-{rival}-{pct:g}": lambda rival=rival, pct=pct: (
            b("CTree", pct).random_io, "<=", b(rival, pct).random_io)
        for pct in (1.0, 0.05, 0.01)
        for rival in ("ADS+", "R-tree+")
    },
    **{
        f"8b-ctree-cheaper-build-than-{rival}-{pct:g}": lambda rival=rival, pct=pct: (
            b("CTree", pct).sim_ms, "<", b(rival, pct).sim_ms)
        for pct in (1.0, 0.05, 0.01)
        for rival in ("ADS+", "R-tree+")
    },
    "8b-ads-over-2x-ctree-0.01": lambda: (
        b("ADS+", 0.01).sim_ms, ">", 2 * b("CTree", 0.01).sim_ms),
    "8b-ads-degrades-more-relative": lambda: (
        b("ADS+", 0.01).sim_ms / b("ADS+", 1.0).sim_ms, ">",
        b("CTree", 0.01).sim_ms / b("CTree", 1.0).sim_ms),
    "8b-ctree-degrades-monotonically-0.05": lambda: (
        b("CTree", 1.0).sim_ms, "<=", b("CTree", 0.05).sim_ms),
    "8b-ctree-degrades-monotonically-0.01": lambda: (
        b("CTree", 0.05).sim_ms, "<=", b("CTree", 0.01).sim_ms),
    # Fig. 8c: space, on Fig. 8a's (materialized) and 8b's (secondary)
    # ample-memory builds.
    "8c-ctreefull-leaves-full": lambda: (b("CTreeFull", 1.0, RW_8A).fill, ">", 0.9),
    "8c-adsfull-leaves-sparse": lambda: (b("ADSFull", 1.0, RW_8A).fill, "<", 0.5),
    "8c-ctree-fill-over-2x-ads": lambda: (b("CTree", 1.0).fill, ">", 2 * b("ADS+", 1.0).fill),
    **{
        f"8c-ctreefull-smaller-than-{rival}": lambda rival=rival: (
            b("CTreeFull", 1.0, RW_8A).index_bytes, "<", b(rival, 1.0, RW_8A).index_bytes)
        for rival in ("CTrieFull", "ADSFull", "iSAX2.0", "R-tree", "DSTree", "Vertical")
    },
    **{
        f"8c-ctree-smaller-than-{rival}": lambda rival=rival: (
            b("CTree", 1.0).index_bytes, "<", b(rival, 1.0).index_bytes)
        for rival in ("ADS+", "R-tree+")
    },
    "8c-ctree-under-0.7x-ads": lambda: (
        b("CTree", 1.0).index_bytes, "<", 0.7 * b("ADS+", 1.0).index_bytes),
    "8c-adsfull-more-leaves": lambda: (
        b("ADSFull", 1.0, RW_8A).n_leaves, ">", b("CTreeFull", 1.0, RW_8A).n_leaves),
    # Fig. 8d: materialized builds vs data size (1 000 / 12 000) at 1 MB.
    "8d-close-when-data-fits": lambda: (
        sized("ADSFull", 1_000, FIXED_8D).sim_ms, "<",
        20 * sized("CTreeFull", 1_000, FIXED_8D).sim_ms),
    "8d-ctreefull-cheaper-at-scale": lambda: (
        sized("CTreeFull", 12_000, FIXED_8D).sim_ms, "<",
        sized("ADSFull", 12_000, FIXED_8D).sim_ms),
    "8d-gap-grows-with-size": lambda: (
        sized("ADSFull", 12_000, FIXED_8D).sim_ms / sized("CTreeFull", 12_000, FIXED_8D).sim_ms,
        ">", sized("ADSFull", 1_000, FIXED_8D).sim_ms / sized("CTreeFull", 1_000, FIXED_8D).sim_ms),
    # Fig. 8e: secondary builds vs data size (2 000 / 16 000) at 128 KB.
    "8e-ctree-cheaper-at-scale": lambda: (
        sized("CTree", 16_000, FIXED_8E).sim_ms, "<", sized("ADS+", 16_000, FIXED_8E).sim_ms),
    "8e-gap-grows-with-size": lambda: (
        sized("ADS+", 16_000, FIXED_8E).sim_ms / sized("CTree", 16_000, FIXED_8E).sim_ms, ">",
        sized("ADS+", 2_000, FIXED_8E).sim_ms / sized("CTree", 2_000, FIXED_8E).sim_ms),
    "8e-ctree-scales-linearly": lambda: (
        sized("CTree", 16_000, FIXED_8E).sim_ms, "<=", 8 * sized("CTree", 2_000, FIXED_8E).sim_ms),
    # Fig. 8f: 4 000 series of length 64 / 128 / 256 at 2 % memory.
    **{
        f"8f-{mine}-cheaper-build-than-{rival}-length-{length}": (
            lambda mine=mine, rival=rival, length=length: (
                long(mine, length).sim_ms, "<", long(rival, length).sim_ms))
        for length in (64, 128, 256)
        for mine, rival in (("CTree", "ADS+"), ("CTreeFull", "ADSFull"))
    },
    # Fig. 9a: exact queries vs data size (2 000 / 10 000), 25 queries.
    **{
        f"9a-{mine}-exact-cheaper-than-{rival}-{n}": lambda mine=mine, rival=rival, n=n: (
            exact(mine, RW.scaled(n)).sim_ms, "<", exact(rival, RW.scaled(n)).sim_ms)
        for n in (2_000, 10_000)
        for mine, rival in (("CTreeFull", "ADSFull"), ("CTree", "R-tree+"),
                            ("CTreeFull", "R-tree"))
    },
    "9a-CTree-exact-cheaper-than-ADS+-10000": lambda: (
        exact("CTree").sim_ms, "<", exact("ADS+").sim_ms),
    # Figs. 9b/9c: approximate queries (2 000 / 10 000).
    **{
        f"9b-{mine}-approx-cheaper-than-{rival}-{n}": lambda mine=mine, rival=rival, n=n: (
            approx(mine, RW.scaled(n)).sim_ms, "<", approx(rival, RW.scaled(n)).sim_ms)
        for n in (2_000, 10_000)
        for mine, rival in (("CTree", "ADS+"), ("CTree", "R-tree+"),
                            ("CTreeFull", "CTree"), ("ADSFull", "ADS+"))
    },
    **{
        f"9b-CTreeFull-one-random-read-like-ADSFull-{n}": lambda n=n: (
            approx("CTreeFull", RW.scaled(n)).random_reads, "<=",
            approx("ADSFull", RW.scaled(n)).random_reads)
        for n in (2_000, 10_000)
    },
    "9c-CTreeFull-approx-cheaper-than-ADSFull-10000": lambda: (
        approx("CTreeFull").sim_ms, "<", approx("ADSFull").sim_ms),
    # Fig. 9d: approximate answer quality, 10 000 series; the thresholds
    # are the paper's (CTree(1) beat ADSFull on 69 %, CTree(10) on 94 %).
    "9d-wider-radius-closer": lambda: (
        np.mean(approx("CTreeFull", radius=10).distances), "<=",
        np.mean(approx("CTreeFull", radius=1).distances)),
    "9d-ctree10-closer-than-adsfull": lambda: (
        np.mean(approx("CTreeFull", radius=10).distances), "<",
        np.mean(approx("ADSFull").distances)),
    "9d-ctree1-beats-adsfull-69pct": lambda: (
        beats(approx("CTreeFull", radius=1), approx("ADSFull")), ">=", 0.69),
    "9d-ctree10-beats-adsfull-94pct": lambda: (
        beats(approx("CTreeFull", radius=10), approx("ADSFull")), ">=", 0.94),
    "9d-wider-radius-beats-more": lambda: (
        beats(approx("CTreeFull", radius=10), approx("ADSFull")), ">=",
        beats(approx("CTreeFull", radius=1), approx("ADSFull"))),
    # Fig. 9e: exact queries at a fixed size (10 000).
    "9e-ctreefull-fewer-random-reads-than-adsfull": lambda: (
        exact("CTreeFull").random_reads, "<", exact("ADSFull").random_reads),
    "9e-ctree-fewer-random-reads-than-ads": lambda: (
        exact("CTree").random_reads, "<", exact("ADS+").random_reads),
    "9e-ctree10-does-not-pay-off": lambda: (
        exact("CTree", radius=10).sim_ms, ">=", exact("CTree").sim_ms),
    # Fig. 9f: records visited by exact search (10 000).
    "9f-ctree-visits-fewer-than-ads": lambda: (exact("CTree").visited, "<", exact("ADS+").visited),
    "9f-ctree10-visits-fewer-than-ads": lambda: (
        exact("CTree", radius=10).visited, "<", exact("ADS+").visited),
    "9f-ctreefull-visits-fewer-than-adsfull": lambda: (
        exact("CTreeFull").visited, "<", exact("ADSFull").visited),
    "9f-ctreefull-sims-visits-fewer-than-adsfull": lambda: (
        exact("CTreeFull").visited - approx("CTreeFull").visited, "<",
        exact("ADSFull").visited - approx("ADSFull").visited),
    "9f-wider-seed-visits-fewer": lambda: (
        exact("CTree", radius=10).visited, "<=", exact("CTree").visited),
    "9f-wider-seed-prunes-more": lambda: (
        exact("CTree", radius=10).pruned, ">=", exact("CTree").pruned),
    **{
        f"9f-{key}-prunes-over-85pct": lambda key=key: (exact(key).pruned, ">", 0.85)
        for key in ("CTree", "CTreeFull", "ADS+", "ADSFull")
    },
    # Fig. 10a: mixed inserts + queries vs batch size (50 / 4 000).
    "10a-ctree-wins-large-batches": lambda: (
        mixed_updates("CTree", 4_000), "<", mixed_updates("ADS+", 4_000)),
    "10a-ctree-ratio-improves-with-batch-size": lambda: (
        mixed_updates("CTree", 4_000) / mixed_updates("ADS+", 4_000), "<",
        mixed_updates("CTree", 50) / mixed_updates("ADS+", 50)),
    # Figs. 10b/10c: build + 25 exact queries at 2 % memory on 2 000
    # astronomy / seismic series; both prune worse than random walks.
    **{
        f"10{fig}-{mine}-complete-cheaper-than-{rival}": (
            lambda spec=spec, mine=mine, rival=rival: (
                complete(mine, spec, 0.02), "<", complete(rival, spec, 0.02)))
        for fig, spec in (("b", ASTRONOMY), ("c", SEISMIC))
        for mine, rival in (("CTree", "ADS+"), ("CTreeFull", "ADSFull"))
    },
    **{
        f"10b-{mine}-smaller-than-{rival}": lambda mine=mine, rival=rival: (
            b(mine, 0.02, ASTRONOMY).index_bytes, "<", b(rival, 0.02, ASTRONOMY).index_bytes)
        for mine, rival in (("CTree", "ADS+"), ("CTreeFull", "ADSFull"))
    },
    **{
        f"10{fig}-prunes-less-than-randomwalk": lambda spec=spec: (
            exact("CTree", spec).pruned, "<", exact("CTree", RW.scaled(spec.n_series)).pruned)
        for fig, spec in (("b", ASTRONOMY), ("c", SEISMIC))
    },
    # Ablation: contiguity.  Price Fig. 8b's 1 % builds with random
    # accesses as cheap as sequential ones: the ADS+ / CTree gap collapses.
    "ablation-contiguity-gap-over-5x": lambda: (
        b("ADS+", 0.01).sim_ms / b("CTree", 0.01).sim_ms, ">", 5),
    "ablation-contiguity-gap-shrinks-under-uniform-cost": lambda: (
        b("ADS+", 0.01).sim_ms / b("CTree", 0.01).sim_ms, ">",
        2 * b("ADS+", 0.01).uniform_ms / b("CTree", 0.01).uniform_ms),
    # Ablation: fill factor 0.5 vs 1.0, then one 800-series insert.
    "ablation-fill-fuller-fewer-leaves": lambda: (filled(1.0).n_leaves, "<", filled(0.5).n_leaves),
    "ablation-fill-fuller-smaller": lambda: (
        filled(1.0).index_bytes, "<=", filled(0.5).index_bytes),
    "ablation-fill-slack-absorbs-inserts": lambda: (
        filled(0.5).leaves_grown, "<=", filled(1.0).leaves_grown),
    # Ablation: LSM vs in-place Coconut-Tree updates (batches of 25 / 200).
    **{
        f"ablation-lsm-cheaper-inserts-{size}": lambda size=size: (
            lsm_updates("LSM", size).insert_ms, "<", lsm_updates("Tree", size).insert_ms)
        for size in (25, 200)
    },
    "ablation-lsm-cheaper-workload-25": lambda: (
        lsm_updates("LSM", 25).total_ms, "<", lsm_updates("Tree", 25).total_ms),
    # Ablation: sortability, invSAX (z-order) vs plain SAX vs file order.
    "ablation-sort-invsax-neighbours-closer-than-sax": lambda: (
        ordered("invsax").neighbor, "<", ordered("sax").neighbor),
    "ablation-sort-sax-neighbours-closer-than-unsorted": lambda: (
        ordered("sax").neighbor, "<", ordered("unsorted").neighbor),
    "ablation-sort-invsax-leaves-tighter-than-unsorted": lambda: (
        ordered("invsax").leaf_radius, "<", ordered("unsorted").leaf_radius),
    # Ablation: split policy, median (CTree) vs prefix (CTrie): space and
    # leaves on Fig. 8b's builds, build cost at 100 / 1 %, exact queries.
    "ablation-split-median-fuller": lambda: (b("CTree", 1.0).fill, ">", b("CTrie", 1.0).fill),
    "ablation-split-median-fewer-leaves": lambda: (
        b("CTree", 1.0).n_leaves, "<", b("CTrie", 1.0).n_leaves),
    "ablation-split-median-fewer-leaves-materialized": lambda: (
        b("CTreeFull", 1.0, RW_8A).n_leaves, "<", b("CTrieFull", 1.0, RW_8A).n_leaves),
    "ablation-split-median-smaller": lambda: (
        b("CTree", 1.0).index_bytes, "<", b("CTrie", 1.0).index_bytes),
    **{
        f"ablation-split-median-cheaper-build-{pct:g}": lambda pct=pct: (
            b("CTree", pct).sim_ms, "<", b("CTrie", pct).sim_ms)
        for pct in (1.0, 0.01)
    },
    "ablation-split-median-cheaper-exact": lambda: (
        exact("CTree").sim_ms, "<", exact("CTrie").sim_ms),
}

#: Claims that do not hold at test scale: name -> what was measured.
NOT_REPRODUCED = {
    "8a-ctreefull-fewer-random-io-than-R-tree-1": (
        "10 vs 5: at 100 % the (key, series) pairs outgrow the budget, so "
        "CTreeFull's sort spills two runs and merges them back"),
    "8a-ctreefull-fewer-random-io-than-R-tree-0.2": (
        "55 vs 53 random I/Os, though CTreeFull's build is cheaper (490 vs 537 ms)"),
    "8a-ctreefull-cheaper-build-than-R-tree-1": "132 vs 97 ms, for the same spilled sort",
    "8a-ctreefull-cheaper-build-than-Vertical-0.2": (
        "490 vs 232 ms: Vertical streams the raw file once per level and never "
        "spills, so its cost ignores the budget; CTreeFull's external sort spills"),
    "8a-ctreefull-cheaper-build-than-Vertical-0.05": "2 743 vs 232 ms, as at 20 %",
    "8a-adsfull-degrades-more-relative": (
        "17.7x vs 20.7x from 100 % to 5 %: CTreeFull's ample-memory build is so "
        "cheap that its ratio is larger, though ADSFull adds 19.4 s against 2.6 s"),
    "8c-ctreefull-smaller-than-Vertical": (
        "Vertical stores only Haar coefficients, one file per level, and no tree"),
    "9c-CTreeFull-approx-cheaper-than-ADSFull-10000": (
        "8.30 vs 8.17 ms: one random read each; a full CTreeFull leaf is 6 "
        "sequential pages against ADSFull's sparse 3.3"),
    "9e-ctree-fewer-random-reads-than-ads": (
        "124.9 vs 124.1 per query: secondary indexes fetch the same raw file "
        "skip-sequentially, and CTree's 3 % fewer visited records do not save seeks"),
    "9f-ctreefull-visits-fewer-than-adsfull": (
        "583 vs 557: the count includes the seed leaf, 100 series when full "
        "against ADSFull's 58.5; the SIMS phase alone visits fewer (next row)"),
    "ablation-split-median-cheaper-build-0.01": (
        "328 vs 229 ms: this Trie builds its compacted prefix regions in one pass "
        "over the sorted keys, so it never pays the paper's CompactSubtree"),
}

OPS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}


def _rows():
    for name in CLAIMS:
        reason = NOT_REPRODUCED.get(name)
        marks = [pytest.mark.xfail(strict=True, reason=reason)] if reason else []
        yield pytest.param(name, id=name, marks=marks)


@pytest.mark.parametrize("name", _rows())
def test_paper_claim(name):
    lhs, op, rhs = CLAIMS[name]()
    assert OPS[op](lhs, rhs), f"{name}: {lhs!r} {op} {rhs!r} does not hold"


def test_not_reproduced_rows_exist():
    assert set(NOT_REPRODUCED) <= set(CLAIMS)


def test_sweeps_are_deterministic():
    """A second, uncached run measures exactly the cached numbers."""
    assert build.__wrapped__("ADS+", RW_8A, budget(RW_8A, 0.05)) == b("ADS+", 0.05, RW_8A)
    assert workload.__wrapped__("CTree", RW, "exact", None, 0.25) == exact("CTree")
