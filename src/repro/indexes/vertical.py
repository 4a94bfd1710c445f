"""Vertical: stepwise kNN over column-stored wavelet coefficients.

The Kashyap & Karras (KDD 2011) baseline: the orthonormal Haar
transform of every series is stored *vertically* — one file per
resolution level, each holding that level's coefficients for all N
series.  The index is built "in a stepwise sequential-scan manner, one
level of resolution at a time" (paper Sec. 5), i.e. one pass over the
data per level, which the evaluation shows is slower to build than
Coconut's single sort.

Queries scan levels coarse-to-fine: after each level the partial
coefficient distance is a lower bound on the true ED, so candidates
whose bound exceeds the best-so-far are dropped; because the transform
is orthonormal, surviving to the final level yields the *exact*
distance — no raw-file access needed (the index is materialized: the
full coefficient set is an invertible copy of the data).
"""

from __future__ import annotations

import numpy as np

from ..storage.disk import SimulatedDisk
from ..storage.pager import PagedFile
from ..storage.seriesfile import RawSeriesFile
from ..summaries.dhwt import haar_transform, level_slices
from .base import BuildReport, Measurement, QueryResult, SeriesIndex


class VerticalIndex(SeriesIndex):
    """Level-files over Haar coefficients with stepwise refinement."""

    name = "Vertical"
    is_materialized = True

    def __init__(
        self,
        disk: SimulatedDisk,
        memory_bytes: int,
        seed_level: int = 4,
    ):
        super().__init__(disk, memory_bytes)
        if seed_level < 1:
            raise ValueError(f"seed_level must be >= 1, got {seed_level}")
        self.seed_level = seed_level
        self._level_files: list[PagedFile] = []
        self._level_slices: list[slice] = []
        self._level_row_bytes: list[int] = []

    # ------------------------------------------------------------------
    def build(self, raw: RawSeriesFile) -> BuildReport:
        self.raw = raw
        self._level_slices = level_slices(raw.length)
        with Measurement(self.disk) as measure:
            # An empty index stores no level files and reads none.
            for level, columns in enumerate(
                self._level_slices if raw.n_series else []
            ):
                # One sequential pass over the raw data per level.
                level_data = np.concatenate(
                    [
                        haar_transform(block)[:, columns].astype(np.float32)
                        for _, block in raw.scan()
                    ]
                )
                file = PagedFile(self.disk, name=f"vertical-L{level}")
                file.write_stream(level_data.tobytes())
                self._level_files.append(file)
                self._level_row_bytes.append(level_data.shape[1] * 4)
        self.built = True
        return BuildReport(
            index_name=self.name,
            n_series=raw.n_series,
            wall_s=measure.wall_s,
            io=measure.io,
            simulated_io_ms=measure.simulated_io_ms,
            index_bytes=self.storage_bytes(),
            n_leaves=len(self._level_files),
            avg_leaf_fill=1.0,
            extra={"levels": len(self._level_slices)},
        )

    # ------------------------------------------------------------------
    def _read_level_rows(self, level: int, positions: np.ndarray) -> np.ndarray:
        """Read coefficient rows of one level, forward-only on disk."""
        row_bytes = self._level_row_bytes[level]
        n_columns = row_bytes // 4
        file = self._level_files[level]
        page_size = self.disk.page_size
        out = np.empty((len(positions), n_columns), dtype=np.float32)
        last_page = -1
        cache: dict[int, bytes] = {}
        for i, position in enumerate(positions):
            start_byte = int(position) * row_bytes
            end_byte = start_byte + row_bytes
            parts = []
            for page in range(start_byte // page_size, -(-end_byte // page_size)):
                if page != last_page or page not in cache:
                    cache = {page: file.read(page)}
                    last_page = page
                parts.append(cache[page])
            # Pages read full-size and zero-padded; a row inside one
            # page parses straight from the device's view, no join.
            blob = parts[0] if len(parts) == 1 else b"".join(parts)
            offset = start_byte - (start_byte // page_size) * page_size
            out[i] = np.frombuffer(blob[offset : offset + row_bytes], np.float32)
        return out

    def _full_row(self, position: int) -> np.ndarray:
        """All coefficients of one series (one row per level file)."""
        parts = [
            self._read_level_rows(level, np.array([position]))[0]
            for level in range(len(self._level_files))
        ]
        return np.concatenate(parts)

    def _query_coefficients(self, query: np.ndarray) -> np.ndarray:
        return haar_transform(query[None, :])[0]

    def approximate_search(self, query: np.ndarray) -> QueryResult:
        """Scan the first ``seed_level`` levels, refine the best candidate."""
        query = self._query_array(query)
        with Measurement(self.disk) as measure:
            q_coefficients = self._query_coefficients(query)
            n = self.raw.n_series
            partial = np.zeros(n)
            positions = np.arange(n)
            for level in range(min(self.seed_level, len(self._level_files))):
                rows = self._read_level_rows(level, positions)
                columns = self._level_slices[level]
                gap = rows.astype(np.float64) - q_coefficients[columns][None, :]
                partial += np.sum(gap * gap, axis=1)
            best = int(np.argmin(partial)) if n else -1
            distance = float("inf")
            if best >= 0:
                full = self._full_row(best).astype(np.float64)
                distance = float(np.linalg.norm(full - q_coefficients))
        return QueryResult(
            answer_idx=best,
            distance=distance,
            visited_records=1 if best >= 0 else 0,
            visited_leaves=min(self.seed_level, len(self._level_files)),
            io=measure.io,
            simulated_io_ms=measure.simulated_io_ms,
            wall_s=measure.wall_s,
        )

    def exact_search(self, query: np.ndarray) -> QueryResult:
        query = self._query_array(query)
        with Measurement(self.disk) as measure:
            q_coefficients = self._query_coefficients(query)
            n = self.raw.n_series
            survivors = np.arange(n)
            partial = np.zeros(n)
            bsf, answer = float("inf"), -1
            for level in range(len(self._level_files)):
                if len(survivors) == 0:
                    break
                rows = self._read_level_rows(level, survivors)
                columns = self._level_slices[level]
                gap = rows.astype(np.float64) - q_coefficients[columns][None, :]
                partial[survivors] += np.sum(gap * gap, axis=1)
                if level == min(self.seed_level, len(self._level_files)) - 1:
                    # Seed the best-so-far with one fully refined candidate.
                    best = survivors[int(np.argmin(partial[survivors]))]
                    full = self._full_row(int(best)).astype(np.float64)
                    bsf = float(np.linalg.norm(full - q_coefficients))
                    answer = int(best)
                if np.isfinite(bsf):
                    keep = np.sqrt(partial[survivors]) < bsf
                    survivors = survivors[keep]
            # Survivors carry their exact distances (orthonormality).
            if len(survivors):
                distances = np.sqrt(partial[survivors])
                j = int(np.argmin(distances))
                if distances[j] < bsf:
                    bsf, answer = float(distances[j]), int(survivors[j])
            visited = int(len(survivors))
        return QueryResult(
            answer_idx=answer,
            distance=bsf,
            visited_records=visited + (1 if n else 0),  # + the seed refine
            visited_leaves=len(self._level_files),
            io=measure.io,
            simulated_io_ms=measure.simulated_io_ms,
            wall_s=measure.wall_s,
            pruned_fraction=1.0 - visited / n if n else 0.0,
        )

    # ------------------------------------------------------------------
    def storage_bytes(self) -> int:
        return sum(file.size_bytes for file in self._level_files)

    def leaf_stats(self) -> tuple[int, float]:
        return len(self._level_files), 1.0
