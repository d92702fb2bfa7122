"""Columnar materialization of a dataset.

The scalar path walks Python objects: one :class:`~repro.datamodel.video.Video`
at a time, one dict lookup per country, one small numpy allocation per
video. At the paper's scale (691k videos × 705k tags) that shape cannot
saturate the hardware. This module materializes a dataset **once** into
flat arrays — the columnar form every vectorized kernel in
:mod:`repro.engine.compute` consumes:

- ``pop`` — a dense ``(V × C)`` popularity-intensity matrix (one row per
  eligible video, one column per registry country);
- ``views`` — an int64 vector of worldwide view counts;
- ``video_ids`` — row labels, in dataset (crawl) order;
- ``tags`` / ``indptr`` / ``indices`` — the tag→video incidence as a CSR
  structure (plain numpy, no scipy): the videos carrying tag ``t`` occupy
  ``indices[indptr[t]:indptr[t+1]]``, as row numbers into ``pop``.

Eligibility mirrors the paper's funnel: a video needs a valid popularity
vector to get a row; tagless rows simply appear in no CSR segment. A
video's duplicate tags (possible when records bypass
:func:`~repro.datamodel.tags.normalize_tags`) are counted **once** per
video — the Eq. (3) sum is over *distinct* tags.

For large universes the dense fill — the only remaining per-video Python
work — can shard across workers. The shard body is a pure-Python loop,
so it holds the GIL: measured on the small/medium presets, a 4-thread
pool moves 50k videos from 73 ms to 58 ms (≤1.25×) while serial
extraction already runs ~700k videos/s. Threads therefore never pay,
and the fill has no thread mode: ``parallel="auto"`` *measures* a
probe slice and only escalates to fork()ed worker processes writing
disjoint row ranges of one ``multiprocessing.shared_memory`` matrix
when the projected serial time dwarfs the ~0.1 s pool spin-up. Every
mode produces an identical dataset.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.datamodel.video import Video
from repro.errors import ReconstructionError
from repro.world.countries import CountryRegistry, default_registry

#: Videos below this count are materialized serially, always. Measured:
#: serial extraction runs ~700k videos/s, so 250k videos is ~0.35 s of
#: work — the first point where shipping shards to forked workers can
#: beat the ~0.1 s pool spin-up plus scatter. (The previous 50k threshold
#: dated from the ThreadPoolExecutor fill, which never actually paid:
#: the shard loop is GIL-bound.)
SHARD_THRESHOLD = 250_000

#: Upper bound on build workers (beyond this the scatter is memory-bound).
MAX_BUILD_WORKERS = 8

#: How the dense fill may be parallelized (``build_columnar(parallel=)``).
PARALLEL_MODES = ("auto", "serial", "process")

#: Rows timed by the ``auto`` probe before deciding serial vs process.
_PROBE_VIDEOS = 2_048

#: Minimum projected serial fill time before forking workers pays
#: (measured fork-pool spin-up is ~0.1 s; shards must dwarf it).
_MIN_PARALLEL_SECONDS = 0.5


@dataclass(frozen=True)
class ColumnarDataset:
    """A dataset flattened into matrices (see module docstring).

    Attributes:
        video_ids: Row labels, in dataset order (length ``V``) — a tuple
            when built in memory, a unicode array/memmap when opened
            from a :mod:`repro.engine.store`.
        pop: ``(V, C)`` intensity matrix on the registry axis — float64
            when built in memory; may be a uint8 memmap out-of-core
            (every kernel widens per chunk).
        views: ``(V,)`` int64 worldwide view counts.
        tags: Tag vocabulary in first-seen order (length ``T``).
        indptr: ``(T + 1,)`` int64 CSR row pointer over ``indices``.
        indices: ``(nnz,)`` int64 video row numbers, grouped by tag.
        codes: The registry axis the columns follow (for integrity
            checks when reloading from disk).
    """

    video_ids: Sequence[str]
    pop: np.ndarray
    views: np.ndarray
    tags: Sequence[str]
    indptr: np.ndarray
    indices: np.ndarray
    codes: Tuple[str, ...]

    @property
    def n_videos(self) -> int:
        return len(self.video_ids)

    @property
    def n_tags(self) -> int:
        return len(self.tags)

    @property
    def n_countries(self) -> int:
        return self.pop.shape[1]

    def tag_video_counts(self) -> np.ndarray:
        """|videos(t)| per tag (distinct videos), aligned with ``tags``."""
        return np.diff(self.indptr)

    def validate(self) -> None:
        """Structural sanity checks; raises ``ReconstructionError``."""
        v, c = self.pop.shape
        if v != len(self.video_ids) or v != len(self.views):
            raise ReconstructionError("columnar row counts disagree")
        if c != len(self.codes):
            raise ReconstructionError("columnar axis width disagrees")
        if len(self.indptr) != len(self.tags) + 1:
            raise ReconstructionError("columnar indptr length disagrees")
        if self.indptr[0] != 0 or self.indptr[-1] != len(self.indices):
            raise ReconstructionError("columnar indptr endpoints disagree")
        if np.any(np.diff(self.indptr) < 0):
            raise ReconstructionError("columnar indptr must be nondecreasing")
        if len(self.indices) and (
            self.indices.min() < 0 or self.indices.max() >= v
        ):
            raise ReconstructionError("columnar indices out of row range")


def _eligible(dataset: Iterable[Video]) -> List[Video]:
    return [video for video in dataset if video.has_valid_popularity()]


def _extract_triples(
    videos: Sequence[Video],
    row_offset: int,
    column_of: Dict[str, int],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rows, cols, vals) for one shard of the dense fill.

    The per-video loop only issues C-speed bulk calls (``dict`` view
    extends); the string→column mapping and the int→float widening run
    once over the whole shard, not once per entry.
    """
    codes: List[str] = []
    values: List[int] = []
    counts: List[int] = []
    for video in videos:
        intensities = video.popularity.as_dict()
        codes.extend(intensities)
        values.extend(intensities.values())
        counts.append(len(intensities))
    rows = np.repeat(
        np.arange(row_offset, row_offset + len(videos), dtype=np.int64),
        counts,
    )
    cols = np.fromiter(
        map(column_of.__getitem__, codes), dtype=np.int64, count=len(codes)
    )
    vals = np.fromiter(values, dtype=np.float64, count=len(values))
    return rows, cols, vals


def _fork_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


def _shard_bounds(n: int, workers: int) -> List[Tuple[int, int]]:
    bounds = np.linspace(0, n, workers + 1, dtype=np.int64)
    return [
        (int(bounds[i]), int(bounds[i + 1]))
        for i in range(workers)
        if bounds[i] < bounds[i + 1]
    ]


def _serial_fill(
    pop: np.ndarray, videos: Sequence[Video], column_of: Dict[str, int]
) -> None:
    rows, cols, vals = _extract_triples(videos, 0, column_of)
    pop[rows, cols] = vals


#: Fork-inherited shard inputs for :func:`_process_fill` workers. Only
#: populated for the duration of the pool; children read it copy-on-write
#: instead of pickling the video list per task.
_FORK_STATE: Dict[str, object] = {}


def _extract_shard_shared(bounds: Tuple[int, int]) -> int:
    """Worker body: extract one shard and scatter it into the shared
    matrix. Shards own disjoint row ranges, so writes never race."""
    lo, hi = bounds
    videos = _FORK_STATE["videos"]
    column_of = _FORK_STATE["column_of"]
    rows, cols, vals = _extract_triples(videos[lo:hi], lo, column_of)
    shm = shared_memory.SharedMemory(name=_FORK_STATE["shm_name"])
    try:
        shared = np.ndarray(
            _FORK_STATE["shape"], dtype=np.float64, buffer=shm.buf
        )
        shared[rows, cols] = vals
    finally:
        shm.close()
    return hi - lo


def _process_fill(
    pop: np.ndarray,
    videos: Sequence[Video],
    column_of: Dict[str, int],
    workers: int,
) -> None:
    """Dense fill across fork()ed processes over shared memory.

    Each child runs the pure-Python triple extraction on its own core
    (the GIL would serialize threads) and scatters straight
    into a ``multiprocessing.shared_memory`` matrix (disjoint row
    ranges), so nothing but the tiny per-shard row counts crosses the
    pipe back. The parent copies the shared buffer into ``pop`` once and
    unlinks it.
    """
    if pop.nbytes == 0:
        _serial_fill(pop, videos, column_of)
        return
    ctx = multiprocessing.get_context("fork")
    pairs = _shard_bounds(len(videos), workers)
    shm = shared_memory.SharedMemory(create=True, size=pop.nbytes)
    try:
        shared = np.ndarray(pop.shape, dtype=np.float64, buffer=shm.buf)
        shared[:] = 0.0
        _FORK_STATE.update(
            videos=videos,
            column_of=column_of,
            shm_name=shm.name,
            shape=pop.shape,
        )
        try:
            with ctx.Pool(processes=min(workers, len(pairs))) as pool:
                pool.map(_extract_shard_shared, pairs)
        finally:
            _FORK_STATE.clear()
        pop[:] = shared
    finally:
        shm.close()
        shm.unlink()


def _choose_fill(
    videos: Sequence[Video],
    column_of: Dict[str, int],
    workers: Optional[int],
    parallel: Optional[str],
) -> Tuple[str, int]:
    """Pick ``(mode, workers)`` for the dense fill.

    ``auto`` is measured, not guessed: it times a :data:`_PROBE_VIDEOS`
    slice of the actual extraction, projects the serial cost, and only
    forks worker processes when that projection clears
    :data:`_MIN_PARALLEL_SECONDS` on a multi-core host. An explicit
    ``workers`` count selects the process fill; without ``fork``
    (e.g. Windows) every request falls back to serial.
    """
    parallel = "auto" if parallel is None else parallel
    if parallel not in PARALLEL_MODES:
        raise ReconstructionError(
            f"parallel must be one of {PARALLEL_MODES}, got {parallel!r}"
        )
    if workers is not None and workers < 1:
        raise ReconstructionError(f"workers must be >= 1, got {workers}")
    n = len(videos)
    if parallel == "serial":
        return "serial", 1
    cpus = os.cpu_count() or 1
    if parallel == "process" or workers is not None:
        resolved = workers or min(MAX_BUILD_WORKERS, cpus)
        if resolved <= 1 or n < 2 * resolved or not _fork_available():
            return "serial", 1
        return "process", resolved
    # auto without a worker count: decide serial-vs-process by measurement.
    if n < SHARD_THRESHOLD or cpus < 2 or not _fork_available():
        return "serial", 1
    probe = min(_PROBE_VIDEOS, n)
    started = time.perf_counter()
    _extract_triples(videos[:probe], 0, column_of)
    projected = (time.perf_counter() - started) * (n / probe)
    if projected < _MIN_PARALLEL_SECONDS:
        return "serial", 1
    return "process", min(MAX_BUILD_WORKERS, cpus)


def build_columnar(
    dataset: Iterable[Video],
    registry: Optional[CountryRegistry] = None,
    workers: Optional[int] = None,
    parallel: Optional[str] = None,
) -> ColumnarDataset:
    """Materialize ``dataset`` into a :class:`ColumnarDataset`.

    Args:
        dataset: Any iterable of videos (a :class:`Dataset` works); only
            videos with a valid popularity vector get a row.
        registry: The column axis; defaults to the library default.
        workers: Dense-fill shard count; ``None`` lets the chosen mode
            decide (up to :data:`MAX_BUILD_WORKERS`).
        parallel: One of :data:`PARALLEL_MODES`. The default ``"auto"``
            measures a probe slice and picks serial or fork()ed
            processes over shared memory (see :func:`_choose_fill`).
            Every mode builds an identical dataset.
    """
    if registry is None:
        registry = default_registry()
    codes = tuple(registry.codes())
    column_of = {code: i for i, code in enumerate(codes)}
    videos = _eligible(dataset)
    n = len(videos)

    pop = np.zeros((n, len(codes)), dtype=np.float64)
    views = np.fromiter(
        (video.views for video in videos), dtype=np.int64, count=n
    )

    mode, resolved = _choose_fill(videos, column_of, workers, parallel)
    if mode == "serial":
        _serial_fill(pop, videos, column_of)
    else:
        _process_fill(pop, videos, column_of, resolved)

    # Tag→video incidence. Tag-id assignment is first-seen order (the
    # same order the scalar table encounters tags), kept serial so the
    # vocabulary is deterministic regardless of worker count.
    entry_names: List[str] = []
    tag_counts: List[int] = []
    for video in videos:
        unique = dict.fromkeys(video.tags)  # dedupe, keep uploader order
        entry_names.extend(unique)
        tag_counts.append(len(unique))
    tag_of: Dict[str, int] = {}
    for tag in entry_names:
        tag_of.setdefault(tag, len(tag_of))

    n_tags = len(tag_of)
    tag_ids = np.fromiter(
        map(tag_of.__getitem__, entry_names),
        dtype=np.int64,
        count=len(entry_names),
    )
    row_ids = np.repeat(np.arange(n, dtype=np.int64), tag_counts)
    counts = np.bincount(tag_ids, minlength=n_tags).astype(np.int64)
    indptr = np.zeros(n_tags + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    # Stable counting sort groups entries by tag while preserving the
    # within-tag video (crawl) order the scalar path accumulates in.
    order = np.argsort(tag_ids, kind="stable")
    indices = row_ids[order]

    return ColumnarDataset(
        video_ids=tuple(video.video_id for video in videos),
        pop=pop,
        views=views,
        tags=tuple(tag_of.keys()),
        indptr=indptr,
        indices=indices,
        codes=codes,
    )
