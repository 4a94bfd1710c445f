"""Dataset generators reproducing the paper's three data sources.

The paper evaluates on (i) synthetic random walks — "shown to
effectively model real-world financial data", (ii) seismic waveforms
from the IRIS repository, and (iii) astronomy series of celestial
objects.  The real datasets are not redistributable, so this module
provides synthetic stand-ins that reproduce the properties the paper
calls out: the Fig. 7 value histograms (random walk and seismology
near-identical and near-Gaussian, astronomy slightly skewed) and the
"denser, harder to prune" structure of the real data (Sec. 5.3).

All generators return z-normalized float32 batches and are
deterministic given a seed.

Seeding policy (audited for reproducible parallel runs): every
generator draws exclusively from one ``np.random.default_rng(seed)``
stream, so a given ``(name, n_series, length, seed)`` tuple yields the
same bytes on every run, process and worker — benchmarks and the
parallel build/query tests rely on this to compare runs.  Query
workloads derive an independent stream from the same seed (offset by
``0x5EED``) so queries never collide with the indexed data.  Passing
``seed=None`` requests fresh OS entropy and is *not* reproducible; all
benchmark defaults pass explicit seeds.

The draw order is part of the bytes.  ``seismic`` draws the noise
block, then every series' event count, then one ``(events, 5)`` block
of uniforms, row by row in per-event order (onset, frequency, decay,
amplitude, phase of series 0's first event, and so on): the order one
scalar draw per parameter takes them in, so the packets can be built
as arrays, a rank of events at a time, with the same bytes.
``astronomy`` keeps its per-series loop: its stream interleaves
``standard_normal``, ``poisson`` and ``exponential`` draws with its
uniforms, and how much of the stream each consumes varies per call
(rejection sampling, and the flare count sets how many draws follow),
so drawing them as arrays would change its bytes.
"""

from __future__ import annotations

import numpy as np

from .dataseries import z_normalize

#: Bound on each of ``seismic``'s scratch buffers: rows are taken in
#: chunks of at most this many bytes of float64 values.
_CHUNK_BYTES = 16 << 20


def random_walk(
    n_series: int, length: int = 256, seed: int | None = None
) -> np.ndarray:
    """Random walk series: cumulative sums of N(0, 1) steps (Sec. 5).

    A starting value is drawn from N(0, 1); each subsequent point adds
    a fresh N(0, 1) draw — the paper's generator verbatim.
    """
    rng = np.random.default_rng(seed)
    steps = rng.standard_normal((n_series, length))
    return z_normalize(np.cumsum(steps, axis=1))


def seismic(
    n_series: int,
    length: int = 256,
    events_per_series: float = 2.0,
    seed: int | None = None,
) -> np.ndarray:
    """Seismology stand-in: noise plus decaying wave-packet arrivals.

    Each series is low-amplitude background noise with a Poisson number
    of "events": exponentially decaying, oscillating wave packets, the
    canonical shape of seismograms.  Many windows share event shapes at
    different phases, which makes the dataset *denser* than random
    walks — queries are harder to prune, as the paper observes for the
    real seismic data.
    """
    rng = np.random.default_rng(seed)
    t = np.arange(length, dtype=np.float64)
    data = 0.1 * rng.standard_normal((n_series, length))
    n_events = rng.poisson(events_per_series, size=n_series)
    # Row e holds event e's (onset, freq, decay, amp, phase), series by
    # series: the order in which one scalar draw per parameter took them.
    params = rng.uniform(
        (0.0, 0.02, 0.01, 0.5, 0.0),
        (length * 0.9, 0.2, 0.08, 3.0, 2 * np.pi),
        size=(int(n_events.sum()), 5),
    )
    first_event = np.cumsum(n_events) - n_events
    onset, freq, decay, amp, phase = params.T
    angular = 2 * np.pi * freq
    rows_per_chunk = max(1, _CHUNK_BYTES // (8 * max(1, length)))
    shape = (min(rows_per_chunk, n_series), length)
    buffers = (np.empty(shape), np.empty(shape), np.empty(shape), np.empty(shape, bool))
    # Rank r adds every series' r-th packet, so each element gets its
    # packets in the per-series order, with the per-event operations.
    for r in range(int(n_events.max(initial=0))):
        series = np.flatnonzero(n_events > r)
        for lo in range(0, len(series), rows_per_chunk):
            rows = series[lo : lo + rows_per_chunk]
            events = (first_event[rows] + r)[:, None]
            rel, envelope, wave, before_onset = (b[: len(rows)] for b in buffers)
            np.subtract(t, onset[events], out=rel)
            np.clip(rel, 0, None, out=envelope)
            np.multiply(-decay[events], envelope, out=envelope)
            np.exp(envelope, out=envelope)
            np.multiply(amp[events], envelope, out=envelope)
            np.multiply(angular[events], rel, out=wave)
            np.add(wave, phase[events], out=wave)
            np.sin(wave, out=wave)
            np.multiply(envelope, wave, out=envelope)
            np.less(rel, 0, out=before_onset)
            np.copyto(envelope, 0.0, where=before_onset)
            data[rows] += envelope
    return z_normalize(data)


def astronomy(
    n_series: int,
    length: int = 256,
    seed: int | None = None,
) -> np.ndarray:
    """Astronomy stand-in: light-curve-like series with skewed values.

    Celestial-object light curves combine smooth periodic variability
    with occasional brightening transients (flares), which gives the
    slightly skewed value histogram of Fig. 7.  Flares are one-sided
    (brightness only goes up), producing the asymmetry.
    """
    rng = np.random.default_rng(seed)
    t = np.arange(length, dtype=np.float64)
    data = np.empty((n_series, length))
    for i in range(n_series):
        period = rng.uniform(length / 8, length / 2)
        amp = rng.uniform(0.3, 1.0)
        phase = rng.uniform(0, 2 * np.pi)
        base = amp * np.sin(2 * np.pi * t / period + phase)
        base += 0.15 * rng.standard_normal(length)
        # One-sided flares: fast rise, exponential decay.
        for _ in range(rng.poisson(1.2)):
            onset = rng.uniform(0, length * 0.95)
            height = rng.exponential(1.2)
            decay = rng.uniform(0.05, 0.3)
            rel = t - onset
            base += np.where(
                rel >= 0, height * np.exp(-decay * np.clip(rel, 0, None)), 0.0
            )
        data[i] = base
    return z_normalize(data)


#: Registry used by benchmarks to sweep the paper's datasets by name.
GENERATORS = {
    "randomwalk": random_walk,
    "seismic": seismic,
    "astronomy": astronomy,
}


def make_dataset(
    name: str, n_series: int, length: int = 256, seed: int | None = None
) -> np.ndarray:
    """Generate one of the paper's datasets by name."""
    try:
        generator = GENERATORS[name]
    except KeyError:
        raise ValueError(
            f"unknown dataset {name!r}; available: {sorted(GENERATORS)}"
        ) from None
    return generator(n_series, length=length, seed=seed)


def query_workload(
    name: str,
    n_queries: int,
    length: int = 256,
    seed: int | None = None,
) -> np.ndarray:
    """Random query workload drawn from the same distribution (Sec. 5).

    The paper's workloads are random: fresh series from the same source
    as the indexed data, so queries are not exact matches of anything
    in the index.  The query stream is derived from ``seed`` with a
    fixed offset: deterministic for a given seed, never equal to the
    data stream of the same seed.  ``seed=None`` means fresh entropy
    (it used to silently alias seed 0, making two "unseeded" workloads
    identical).
    """
    offset = None if seed is None else seed + 0x5EED
    return make_dataset(name, n_queries, length=length, seed=offset)
