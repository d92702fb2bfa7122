"""Delta-ingesting engine state: Eq. (1)–(3) without full rebuilds.

The columnar engine computes every surface from a *static* snapshot;
any change to a view count forces an O(V×C) rebuild. This module keeps
the same surfaces — the views vector, the reconstructed per-country
rows, the Eq. (3) tag segment sums, and the row-metric columns — as
*live state* that absorbs timestamped :class:`DeltaBatch` updates
(view deltas to existing videos, newly arrived videos, never-seen
tags) at a cost proportional to what the batch touches, not to the
corpus.

Exactness contract
------------------

After any sequence of batches, the engine state is **bit-identical
(float64)** to a cold rebuild on the cumulative snapshot — and
therefore invariant to how the delta stream is chunked. This is not an
approximation that happens to be close; it holds by construction:

- integer view counts accumulate exactly (int64 adds commute);
- a touched video's estimate row is recomputed by the *same*
  :func:`~repro.engine.compute.reconstruct_rows` call the cold path
  runs — Eq. (1)–(2) are row-separable, so a row's bits depend only on
  its own (pop, views) and the shared prior, never on which other rows
  share the call;
- a touched tag's Eq. (3) row is recomputed by the *same*
  :func:`~repro.engine.compute.tag_segment_sums` gather + reduction
  over the *same member rows in the same (first-seen) order* — the
  blocked/length-grouped kernel is already pinned bitwise-equal across
  arbitrary groupings by the out-of-core suite;
- row metrics are per-row kernels applied to up-to-date rows.

An untouched row keeps the bits it was last recomputed with, and those
are the final bits because nothing that feeds it changed.

Amortizing the Zipf head
------------------------

Tag degrees follow a power law: the head tags of a realistic corpus
each cover thousands of videos, and essentially *every* batch touches
them. Exact Eq. (3) for a degree-``d`` tag costs O(d) no matter how
small the delta was, so recomputing every touched tag eagerly per
batch would make every batch pay a near-constant fraction of a full
rebuild. :class:`IncrementalEngine` therefore marks touched tags
**dirty** and recomputes them lazily, all at once, when the table is
next read (:attr:`~IncrementalEngine.tag_views` or an explicit
:meth:`~IncrementalEngine.flush`): :meth:`~IncrementalEngine.apply`
stays strictly O(deltas), and a tag touched by N batches between
reads pays one recompute instead of N. Reads always see the exact
table.

``eager_degree_limit`` tunes this for read-heavy interleavings: tags
at or below the limit (the power-law tail — each a few rows of work)
are recomputed inside apply(), so only the head tags defer;
``eager_degree_limit=None`` disables deferral entirely for callers
that want every batch to leave a fully materialized table. The
row-metric surfaces follow the same discipline — touched rows are
marked and the columns materialize on
:meth:`~IncrementalEngine.metric` reads — because a per-batch metric
pass over every touched row costs several kernel sweeps that a
once-per-query pass collapses.

The cold-rebuild oracle lives here too (:func:`cold_rebuild`): the
fastest full-snapshot path the library has — vectorized first-seen
vocabulary, counting-sort CSR, :func:`~repro.engine.compute.reconstruct_all`,
:func:`~repro.engine.compute.tag_segment_sums` — which is what the
equivalence tests and benchmark D1 compare against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.engine.columnar import ColumnarDataset
from repro.engine.compute import (
    entropy_rows,
    gini_rows,
    herfindahl_rows,
    reconstruct_all,
    reconstruct_rows,
    rows_to_distributions,
    tag_segment_sums,
    top_k_share_rows,
)
from repro.errors import IncrementalStateError, ReconstructionError
from repro.reconstruct.views import ViewReconstructor

#: Default degree threshold separating eager tag recompute (≤ limit)
#: from deferred-dirty recompute (> limit). The default 0 defers every
#: touched tag — apply() is then strictly O(deltas) and the Eq. (3)
#: rows materialize on the next read, which is the right trade for an
#: ingest-heavy stream (a read right after every batch costs the same
#: as eager would have; a read after N batches costs one recompute
#: instead of N). Set a positive limit (e.g. 64) to keep the power-law
#: *tail* materialized per batch and defer only the head tags.
EAGER_DEGREE_LIMIT = 0

#: Names of the row-metric surfaces the engine can maintain.
METRIC_NAMES = ("entropy", "gini", "hhi", "top_share")

_EMPTY_IDS = np.empty(0, dtype="<U1")
_EMPTY_I64 = np.empty(0, dtype=np.int64)


@dataclass(frozen=True)
class DeltaBatch:
    """One timestamped increment to the corpus.

    Existing-video view deltas and new-video arrivals ride in the same
    batch; arrivals are registered first, so a batch may deliver views
    to a video it just introduced. New videos carry their tags as
    *names* — a tag never seen before simply extends the vocabulary in
    first-seen order, exactly as a cold build scanning the cumulative
    snapshot would number it.

    Attributes:
        timestamp: Batch time (seconds, any epoch); must be
            nondecreasing across batches fed to one engine.
        video_ids: ``(n,)`` unicode ids of existing videos receiving
            view deltas (duplicates allowed — deltas sum).
        view_deltas: ``(n,)`` int64 view increments (negative allowed
            for corrections; driving a count below zero is an error).
        new_video_ids: ``(m,)`` unicode ids of newly arrived videos.
        new_views: ``(m,)`` int64 initial view counts.
        new_pop: ``(m, C)`` popularity-intensity rows (any integer or
            float dtype; stored as float64).
        new_has_map: Optional ``(m,)`` bool; False rows mirror the
            paper's missing-chartmap funnel stage — they are dropped
            from the engine exactly as the cold builders drop them
            (later deltas addressed to them are counted and ignored).
        new_tag_indptr: ``(m + 1,)`` int64 pointer into ``new_tags``.
        new_tags: Tag *names* per new video, uploader order (a video's
            duplicate tags are counted once, keep-first).
    """

    timestamp: float
    video_ids: np.ndarray = field(default_factory=lambda: _EMPTY_IDS)
    view_deltas: np.ndarray = field(default_factory=lambda: _EMPTY_I64)
    new_video_ids: np.ndarray = field(default_factory=lambda: _EMPTY_IDS)
    new_views: np.ndarray = field(default_factory=lambda: _EMPTY_I64)
    new_pop: Optional[np.ndarray] = None
    new_has_map: Optional[np.ndarray] = None
    new_tag_indptr: Optional[np.ndarray] = None
    new_tags: Optional[np.ndarray] = None

    @property
    def n_deltas(self) -> int:
        return len(self.video_ids)

    @property
    def n_arrivals(self) -> int:
        return len(self.new_video_ids)

    def validate(self, n_countries: int) -> None:
        """Shape/consistency checks; raises ``IncrementalStateError``."""
        if len(self.view_deltas) != len(self.video_ids):
            raise IncrementalStateError(
                f"batch at t={self.timestamp}: {len(self.video_ids)} delta "
                f"ids vs {len(self.view_deltas)} delta values"
            )
        m = len(self.new_video_ids)
        if len(self.new_views) != m:
            raise IncrementalStateError(
                f"batch at t={self.timestamp}: {m} new ids vs "
                f"{len(self.new_views)} initial view counts"
            )
        if m:
            pop = None if self.new_pop is None else np.asarray(self.new_pop)
            if pop is None or pop.shape != (m, n_countries):
                shape = None if pop is None else pop.shape
                raise IncrementalStateError(
                    f"batch at t={self.timestamp}: new_pop shape {shape} "
                    f"does not match ({m}, {n_countries})"
                )
            if self.new_has_map is not None and len(self.new_has_map) != m:
                raise IncrementalStateError(
                    f"batch at t={self.timestamp}: new_has_map length "
                    f"{len(self.new_has_map)} does not match {m} arrivals"
                )
            indptr = self.new_tag_indptr
            tags = self.new_tags if self.new_tags is not None else _EMPTY_IDS
            if indptr is None or len(indptr) != m + 1:
                raise IncrementalStateError(
                    f"batch at t={self.timestamp}: new_tag_indptr must have "
                    f"{m + 1} entries"
                )
            indptr = np.asarray(indptr)
            if indptr[0] != 0 or indptr[-1] != len(tags) or np.any(
                np.diff(indptr) < 0
            ):
                raise IncrementalStateError(
                    f"batch at t={self.timestamp}: new_tag_indptr is not a "
                    f"valid CSR pointer over {len(tags)} tag entries"
                )


@dataclass(frozen=True)
class ApplyResult:
    """What one :meth:`IncrementalEngine.apply` call changed.

    The trending detector consumes this: ``touched_rows`` /
    ``row_views_added`` say *where* views landed this batch without the
    detector re-deriving it from engine state.

    Attributes:
        timestamp: The batch timestamp.
        touched_rows: Sorted unique engine row numbers whose estimate
            rows were recomputed (delta targets + registered arrivals).
        row_views_added: int64 views added to each touched row this
            batch (aligned with ``touched_rows``; arrivals contribute
            their initial counts).
        touched_tags: Sorted unique tag ids whose Eq. (3) rows were
            invalidated (recomputed eagerly or marked dirty).
        n_deltas: Delta entries applied (after dropping ignored ones).
        n_deltas_ignored: Delta entries addressed to videos the funnel
            dropped (known ineligible ids).
        n_new_videos: Arrivals registered (eligible only).
        n_new_videos_skipped: Arrivals dropped by ``new_has_map``.
        n_new_tags: Never-seen tag names added to the vocabulary.
        n_tags_deferred: Touched tags above the eager degree limit,
            left dirty for the next flush.
    """

    timestamp: float
    touched_rows: np.ndarray
    row_views_added: np.ndarray
    touched_tags: np.ndarray
    n_deltas: int
    n_deltas_ignored: int
    n_new_videos: int
    n_new_videos_skipped: int
    n_new_tags: int
    n_tags_deferred: int


class IncrementalEngine:
    """Live Eq. (1)–(3) state under a stream of :class:`DeltaBatch`.

    Args:
        reconstructor: Estimator configuration (prior / naive /
            smoothing) and the registry axis; defaults to the plain
            paper estimator on the library's 2011 traffic model.
        track_metrics: Maintain the per-row metric surfaces
            (:data:`METRIC_NAMES`); touched rows are marked per batch
            and the columns materialize on :meth:`metric` reads.
        eager_degree_limit: Tags with at most this many member videos
            are recomputed inside :meth:`apply`; heavier tags defer to
            the next read/:meth:`flush`. The default 0 defers every
            touched tag (strict O(deltas) apply); ``None`` recomputes
            everything eagerly (exact table after every batch, at
            Zipf-head cost).
    """

    def __init__(
        self,
        reconstructor: Optional[ViewReconstructor] = None,
        track_metrics: bool = False,
        eager_degree_limit: Optional[int] = EAGER_DEGREE_LIMIT,
    ):
        if eager_degree_limit is not None and eager_degree_limit < 0:
            raise IncrementalStateError(
                f"eager_degree_limit must be >= 0 or None, "
                f"got {eager_degree_limit}"
            )
        self.reconstructor = (
            reconstructor if reconstructor is not None else ViewReconstructor()
        )
        self.registry = self.reconstructor.registry
        self.codes = tuple(self.registry.codes())
        self.track_metrics = track_metrics
        self.eager_degree_limit = eager_degree_limit
        self._prior = None if self.reconstructor.naive else np.asarray(
            self.reconstructor.prior, dtype=np.float64
        )

        n_c = len(self.codes)
        self._n = 0
        self._pop = np.empty((0, n_c), dtype=np.float64)
        self._views = np.empty(0, dtype=np.int64)
        self._est = np.empty((0, n_c), dtype=np.float64)
        self._ids: List[str] = []
        self._row_of: Dict[str, int] = {}
        self._skipped_ids: set = set()
        # Video → tags, an append-only flat CSR (a video's tag list is
        # fixed at arrival, so rows only ever append).
        self._vt_flat = np.empty(0, dtype=np.int64)
        self._vt_len = 0
        self._vt_indptr = np.zeros(1, dtype=np.int64)

        self._tags: List[str] = []
        self._tag_of: Dict[str, int] = {}
        # Tag → member rows, two layers: a compacted flat CSR plus a
        # flat append log of members added since the last compaction
        # (kept tiny by periodic recompaction). A tag's member order is
        # always base-then-extras = arrival order, because extras are
        # strictly newer rows.
        self._mem_indptr = np.zeros(1, dtype=np.int64)
        self._mem_indices = _EMPTY_I64
        self._ex_tags = np.empty(0, dtype=np.int64)
        self._ex_rows = np.empty(0, dtype=np.int64)
        self._ex_len = 0
        self._ex_sorted: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._tag_cap = 0
        self._degrees = np.empty(0, dtype=np.int64)
        self._tag_views = np.empty((0, n_c), dtype=np.float64)
        self._dirty_tags: set = set()

        self._metrics: Dict[str, np.ndarray] = (
            {name: np.empty(0, dtype=np.float64) for name in METRIC_NAMES}
            if track_metrics
            else {}
        )
        self._metric_dirty = np.empty(0, dtype=bool)

        self.last_timestamp: Optional[float] = None
        self.batches_applied = 0
        self.deltas_applied = 0
        self.deltas_ignored = 0
        self.videos_skipped = 0
        self.rows_recomputed = 0
        self.tag_rows_recomputed = 0
        self.tag_rows_deferred = 0
        self.flushes = 0

    # -- public views of the state ------------------------------------------

    @property
    def n_videos(self) -> int:
        return self._n

    @property
    def n_tags(self) -> int:
        return len(self._tags)

    @property
    def n_countries(self) -> int:
        return len(self.codes)

    @property
    def video_ids(self) -> Tuple[str, ...]:
        return tuple(self._ids)

    @property
    def tags(self) -> Tuple[str, ...]:
        return tuple(self._tags)

    @property
    def views(self) -> np.ndarray:
        return self._readonly(self._views[: self._n])

    @property
    def pop(self) -> np.ndarray:
        return self._readonly(self._pop[: self._n])

    @property
    def est(self) -> np.ndarray:
        """The reconstructed Eq. (1)–(2) matrix, rows always current."""
        return self._readonly(self._est[: self._n])

    @property
    def tag_views(self) -> np.ndarray:
        """The exact Eq. (3) table (flushes any deferred tags first)."""
        self.flush()
        return self._readonly(self._tag_views[: len(self._tags)])

    @property
    def dirty_tag_count(self) -> int:
        return len(self._dirty_tags)

    def metric(self, name: str) -> np.ndarray:
        """One row-metric column (see :data:`METRIC_NAMES`), made current."""
        if not self.track_metrics:
            raise IncrementalStateError(
                "engine was built with track_metrics=False"
            )
        if name not in self._metrics:
            raise IncrementalStateError(
                f"unknown metric {name!r}; have {sorted(self._metrics)}"
            )
        self._flush_metrics()
        return self._readonly(self._metrics[name][: self._n])

    def row_of(self, video_id: str) -> int:
        try:
            return self._row_of[video_id]
        except KeyError:
            raise IncrementalStateError(
                f"unknown video id {video_id!r}"
            ) from None

    def tag_id(self, tag: str) -> int:
        try:
            return self._tag_of[tag]
        except KeyError:
            raise IncrementalStateError(f"unknown tag {tag!r}") from None

    def tag_members(self, tag_id: int) -> np.ndarray:
        """Member rows of one tag, first-seen order (read-only)."""
        return self._readonly(self._member_array(tag_id))

    def video_tags(self, row: int) -> np.ndarray:
        """Tag ids of one video row, uploader order (read-only)."""
        lo, hi = self._vt_indptr[row], self._vt_indptr[row + 1]
        return self._readonly(self._vt_flat[lo:hi])

    @property
    def video_tag_csr(self) -> Tuple[np.ndarray, np.ndarray]:
        """The row→tag CSR ``(indptr, tag_ids)``, read-only.

        Row *r*'s tag ids, in uploader order, are
        ``tag_ids[indptr[r]:indptr[r + 1]]``. Rows only ever append, so
        a row's slice never changes once it has arrived.
        """
        return (
            self._readonly(self._vt_indptr),
            self._readonly(self._vt_flat[: self._vt_len]),
        )

    @staticmethod
    def _readonly(array: np.ndarray) -> np.ndarray:
        view = array.view()
        view.flags.writeable = False
        return view

    # -- ingestion -----------------------------------------------------------

    def apply(self, batch: DeltaBatch) -> ApplyResult:
        """Absorb one batch; returns what changed (see :class:`ApplyResult`)."""
        if self.last_timestamp is not None and batch.timestamp < self.last_timestamp:
            raise IncrementalStateError(
                f"time ran backwards: batch at t={batch.timestamp} after "
                f"t={self.last_timestamp}"
            )
        batch.validate(len(self.codes))

        new_rows, new_initial_views, n_skipped, n_new_tags = (
            self._register_arrivals(batch)
        )
        delta_rows, deltas, n_ignored = self._apply_view_deltas(batch)

        if len(new_rows) and len(delta_rows):
            touched = np.unique(np.concatenate([delta_rows, new_rows]))
        elif len(new_rows):
            touched = new_rows  # already sorted ascending
        else:
            touched = np.unique(delta_rows)

        if len(touched):
            self._recompute_rows(touched)
        touched_tags, n_deferred = self._refresh_tags(touched)

        row_views_added = np.zeros(len(touched), dtype=np.int64)
        if len(delta_rows):
            np.add.at(
                row_views_added, np.searchsorted(touched, delta_rows), deltas
            )
        if len(new_rows):
            row_views_added[np.searchsorted(touched, new_rows)] += (
                new_initial_views
            )

        self.last_timestamp = batch.timestamp
        self.batches_applied += 1
        self.deltas_applied += len(delta_rows)
        self.deltas_ignored += n_ignored
        self.videos_skipped += n_skipped
        return ApplyResult(
            timestamp=batch.timestamp,
            touched_rows=touched,
            row_views_added=row_views_added,
            touched_tags=touched_tags,
            n_deltas=len(delta_rows),
            n_deltas_ignored=n_ignored,
            n_new_videos=len(new_rows),
            n_new_videos_skipped=n_skipped,
            n_new_tags=n_new_tags,
            n_tags_deferred=n_deferred,
        )

    def _register_arrivals(
        self, batch: DeltaBatch
    ) -> Tuple[np.ndarray, np.ndarray, int, int]:
        m = batch.n_arrivals
        if not m:
            return _EMPTY_I64, _EMPTY_I64, 0, 0
        ids = np.asarray(batch.new_video_ids)
        has_map = (
            np.ones(m, dtype=bool)
            if batch.new_has_map is None
            else np.asarray(batch.new_has_map, dtype=bool)
        )
        id_list = [str(vid) for vid in ids]
        if len(set(id_list)) != m:
            raise IncrementalStateError(
                f"batch at t={batch.timestamp}: duplicate video id within "
                f"the batch's arrivals"
            )
        for vid in id_list:
            if vid in self._row_of or vid in self._skipped_ids:
                raise IncrementalStateError(
                    f"batch at t={batch.timestamp}: duplicate arrival of "
                    f"video {vid!r}"
                )
        keep = np.flatnonzero(has_map)
        n_skipped = m - len(keep)
        if n_skipped:
            self._skipped_ids.update(
                vid for vid, ok in zip(id_list, has_map) if not ok
            )
        if not len(keep):
            return _EMPTY_I64, _EMPTY_I64, n_skipped, 0

        new_views = np.asarray(batch.new_views, dtype=np.int64)[keep]
        if np.any(new_views < 0):
            raise IncrementalStateError(
                f"batch at t={batch.timestamp}: negative initial view count"
            )
        base = self._n
        k = len(keep)
        self._grow_rows(base + k)
        self._pop[base : base + k] = np.asarray(
            batch.new_pop, dtype=np.float64
        )[keep]
        self._views[base : base + k] = new_views
        kept_ids = (
            id_list if k == m else [id_list[i] for i in keep.tolist()]
        )
        self._row_of.update(zip(kept_ids, range(base, base + k)))
        self._ids.extend(kept_ids)

        n_new_tags = self._register_tags(batch, keep, base)
        return (
            np.arange(base, base + k, dtype=np.int64),
            new_views,
            n_skipped,
            n_new_tags,
        )

    def _register_tags(
        self, batch: DeltaBatch, keep: np.ndarray, base: int
    ) -> int:
        """Vocabulary + membership updates for the kept arrivals.

        Vectorized, but semantically a serial scan: tag numbering is
        first-seen order over entries taken video-major (arrival
        order), tags in uploader order — the cold builders' rule.
        """
        indptr = np.asarray(batch.new_tag_indptr, dtype=np.int64)
        names = np.asarray(batch.new_tags)
        counts = (indptr[1:] - indptr[:-1])[keep]
        total = int(counts.sum())
        rel = np.arange(total, dtype=np.int64)
        row_of_entry = np.repeat(
            np.arange(len(keep), dtype=np.int64), counts
        )
        gather = rel + np.repeat(
            indptr[keep] - (np.cumsum(counts) - counts), counts
        )
        entries = names[gather]

        # Keep-first dedupe of each video's tag list (no-op for streams
        # that already deduped).
        order = np.lexsort((rel, entries, row_of_entry))
        head = np.ones(total, dtype=bool)
        head[1:] = (row_of_entry[order][1:] != row_of_entry[order][:-1]) | (
            entries[order][1:] != entries[order][:-1]
        )
        kept_entry = np.sort(order[head])
        entries = entries[kept_entry]
        entry_rows = base + row_of_entry[kept_entry]

        # Resolve names: existing ids via the dict, new names numbered
        # by first occurrence.
        unique, first_pos, inverse = np.unique(
            entries, return_index=True, return_inverse=True
        )
        tag_of = self._tag_of
        resolved = np.fromiter(
            (tag_of.get(name, -1) for name in unique),
            dtype=np.int64,
            count=len(unique),
        )
        missing = np.flatnonzero(resolved < 0)
        n_new = len(missing)
        if n_new:
            missing = missing[np.argsort(first_pos[missing], kind="stable")]
            start = len(self._tags)
            resolved[missing] = np.arange(start, start + n_new)
            for name in unique[missing]:
                name = str(name)
                tag_of[name] = len(self._tags)
                self._tags.append(name)
            self._ensure_tag_capacity(len(self._tags))
            # New tags have empty base segments until the next compaction.
            self._mem_indptr = np.concatenate(
                [
                    self._mem_indptr,
                    np.full(n_new, self._mem_indptr[-1], dtype=np.int64),
                ]
            )
        entry_tags = resolved[inverse]

        # Video → tags flat CSR rows (video-major order preserved).
        self._append_video_tags(entry_tags, np.diff(
            np.searchsorted(entry_rows, np.arange(base, base + len(keep) + 1))
        ))

        # Tag → members: entries land in the extras log in arrival
        # order; degrees update by tag.
        self._append_extras(entry_tags, entry_rows)
        np.add.at(self._degrees, entry_tags, 1)
        if self._ex_len > max(8192, self._vt_len // 8):
            self._compact_members()
        return n_new

    def _append_video_tags(
        self, entry_tags: np.ndarray, counts: np.ndarray
    ) -> None:
        needed = self._vt_len + len(entry_tags)
        if needed > len(self._vt_flat):
            cap = max(needed, 2 * len(self._vt_flat), 4096)
            grown = np.empty(cap, dtype=np.int64)
            grown[: self._vt_len] = self._vt_flat[: self._vt_len]
            self._vt_flat = grown
        self._vt_flat[self._vt_len : needed] = entry_tags
        new_ptr = self._vt_len + np.cumsum(counts, dtype=np.int64)
        self._vt_indptr = np.concatenate([self._vt_indptr, new_ptr])
        self._vt_len = needed

    def _apply_view_deltas(
        self, batch: DeltaBatch
    ) -> Tuple[np.ndarray, np.ndarray, int]:
        n = batch.n_deltas
        if not n:
            return _EMPTY_I64, _EMPTY_I64, 0
        deltas = np.asarray(batch.view_deltas, dtype=np.int64)
        row_of = self._row_of
        ignored = 0
        try:
            # Fast path: every id resolves (np.str_ hashes as str).
            rows = np.fromiter(
                map(row_of.__getitem__, batch.video_ids),
                dtype=np.int64,
                count=n,
            )
        except KeyError:
            rows = np.empty(n, dtype=np.int64)
            for i, vid in enumerate(map(str, batch.video_ids)):
                row = row_of.get(vid, -1)
                if row < 0:
                    if vid not in self._skipped_ids:
                        raise IncrementalStateError(
                            f"batch at t={batch.timestamp}: view delta for "
                            f"unknown video {vid!r}"
                        ) from None
                    ignored += 1
                rows[i] = row
            if ignored:
                known = rows >= 0
                rows, deltas = rows[known], deltas[known]
        np.add.at(self._views, rows, deltas)
        negative = rows[self._views[rows] < 0]
        if negative.size:
            raise IncrementalStateError(
                f"batch at t={batch.timestamp}: view count of video "
                f"{self._ids[int(negative[0])]!r} driven below zero"
            )
        return rows, deltas, ignored

    def _recompute_rows(self, touched: np.ndarray) -> None:
        # The exact cold-path arithmetic on just the touched rows:
        # Eq. (1)–(2) are row-separable, so this slice call produces the
        # same bits reconstruct_all would for these rows.
        self._est[touched] = reconstruct_rows(
            self._pop[touched],
            self._views[touched],
            self._prior,
            naive=self.reconstructor.naive,
            smoothing=self.reconstructor.smoothing,
        )
        self.rows_recomputed += len(touched)
        if self.track_metrics:
            self._metric_dirty[touched] = True

    def _flush_metrics(self) -> None:
        rows = np.flatnonzero(self._metric_dirty[: self._n])
        if not len(rows):
            return
        shares = rows_to_distributions(self._est[rows])
        self._metrics["entropy"][rows] = entropy_rows(shares)
        self._metrics["gini"][rows] = gini_rows(shares)
        self._metrics["hhi"][rows] = herfindahl_rows(shares)
        self._metrics["top_share"][rows] = top_k_share_rows(shares)
        self._metric_dirty[rows] = False

    def _refresh_tags(self, touched_rows: np.ndarray) -> Tuple[np.ndarray, int]:
        if not len(touched_rows):
            return _EMPTY_I64, 0
        starts = self._vt_indptr[touched_rows]
        counts = self._vt_indptr[touched_rows + 1] - starts
        positions = self._flat_positions(starts, counts)
        if not len(positions):
            return _EMPTY_I64, 0
        touched_tags = np.unique(self._vt_flat[positions])
        limit = self.eager_degree_limit
        if limit is None:
            eager = touched_tags
            n_deferred = 0
        else:
            degrees = self._degrees[touched_tags]
            heavy = touched_tags[degrees > limit]
            eager = touched_tags[degrees <= limit]
            n_deferred = len(heavy)
            if n_deferred:
                self._dirty_tags.update(heavy.tolist())
                self.tag_rows_deferred += n_deferred
        if len(eager):
            # A previously deferred tag recomputed eagerly now is clean.
            if self._dirty_tags:
                self._dirty_tags.difference_update(eager.tolist())
            self._recompute_tag_rows(eager)
        return touched_tags, n_deferred

    # -- membership layers ---------------------------------------------------

    @staticmethod
    def _flat_positions(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
        """Flat gather positions of CSR segments ``[start, start+count)``."""
        total = int(counts.sum())
        if not total:
            return _EMPTY_I64
        return np.arange(total, dtype=np.int64) + np.repeat(
            starts - (np.cumsum(counts) - counts), counts
        )

    def _append_extras(self, tags: np.ndarray, rows: np.ndarray) -> None:
        needed = self._ex_len + len(tags)
        if needed > len(self._ex_tags):
            cap = max(needed, 2 * len(self._ex_tags), 4096)
            for attr in ("_ex_tags", "_ex_rows"):
                grown = np.empty(cap, dtype=np.int64)
                old = getattr(self, attr)
                grown[: self._ex_len] = old[: self._ex_len]
                setattr(self, attr, grown)
        self._ex_tags[self._ex_len : needed] = tags
        self._ex_rows[self._ex_len : needed] = rows
        self._ex_len = needed
        self._ex_sorted = None

    def _extras_sorted(self) -> Tuple[np.ndarray, np.ndarray]:
        """The extras log grouped by tag (stable → arrival order kept)."""
        if self._ex_sorted is None:
            order = np.argsort(self._ex_tags[: self._ex_len], kind="stable")
            self._ex_sorted = (
                self._ex_tags[order],
                self._ex_rows[order],
            )
        return self._ex_sorted

    def _compact_members(self) -> None:
        """Fold the extras log into the flat member CSR.

        A counting sort of the video→tag entries (which sit in arrival
        order) — the exact construction the cold builders use, so
        segment member order is unchanged: ascending arrival order.
        """
        n_tags = len(self._tags)
        flat = self._vt_flat[: self._vt_len]
        counts = np.bincount(flat, minlength=n_tags)
        indptr = np.zeros(n_tags + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        entry_rows = np.repeat(
            np.arange(self._n, dtype=np.int64), np.diff(self._vt_indptr)
        )
        self._mem_indices = entry_rows[np.argsort(flat, kind="stable")]
        self._mem_indptr = indptr
        self._ex_len = 0
        self._ex_sorted = None

    def _member_array(self, tag_id: int) -> np.ndarray:
        base = self._mem_indices[
            self._mem_indptr[tag_id] : self._mem_indptr[tag_id + 1]
        ]
        if self._ex_len:
            mask = self._ex_tags[: self._ex_len] == tag_id
            if mask.any():
                return np.concatenate([base, self._ex_rows[: self._ex_len][mask]])
        return base

    def _recompute_tag_rows(self, tag_ids: np.ndarray) -> None:
        """Exact Eq. (3) for a set of tags via the shared kernel.

        Assembles a sub-CSR holding only these tags' segments — same
        member rows, same first-seen order (base layer, then extras —
        both ascending arrival order) — and hands it to
        :func:`tag_segment_sums` over the live estimate matrix, so each
        recomputed row is bitwise what a full-table call would produce.
        Pure vectorized gathers: no per-tag Python.
        """
        base_starts = self._mem_indptr[tag_ids]
        base_counts = self._mem_indptr[tag_ids + 1] - base_starts
        if self._ex_len:
            ex_tags, ex_rows = self._extras_sorted()
            ex_lo = np.searchsorted(ex_tags, tag_ids, side="left")
            ex_counts = (
                np.searchsorted(ex_tags, tag_ids, side="right") - ex_lo
            )
        else:
            ex_counts = np.zeros(len(tag_ids), dtype=np.int64)
        indptr = np.zeros(len(tag_ids) + 1, dtype=np.int64)
        np.cumsum(base_counts + ex_counts, out=indptr[1:])
        indices = np.empty(int(indptr[-1]), dtype=np.int64)
        dest = self._flat_positions(indptr[:-1], base_counts)
        indices[dest] = self._mem_indices[
            self._flat_positions(base_starts, base_counts)
        ]
        if self._ex_len:
            dest = self._flat_positions(indptr[:-1] + base_counts, ex_counts)
            indices[dest] = ex_rows[self._flat_positions(ex_lo, ex_counts)]
        self._tag_views[tag_ids] = tag_segment_sums(
            self._est[: self._n], indptr, indices
        )
        self.tag_rows_recomputed += len(tag_ids)

    def flush(self) -> int:
        """Recompute all deferred tag rows; returns how many there were."""
        if not self._dirty_tags:
            return 0
        dirty = np.fromiter(
            self._dirty_tags, dtype=np.int64, count=len(self._dirty_tags)
        )
        dirty.sort()
        self._dirty_tags.clear()
        self._recompute_tag_rows(dirty)
        self.flushes += 1
        return len(dirty)

    # -- capacity ------------------------------------------------------------

    def _grow_rows(self, needed: int) -> None:
        n_c = len(self.codes)
        if needed > len(self._views):
            cap = max(needed, 2 * len(self._views), 1024)
            self._pop = self._grown(self._pop, (cap, n_c))
            self._views = self._grown(self._views, (cap,))
            self._est = self._grown(self._est, (cap, n_c))
            if self.track_metrics:
                for name in self._metrics:
                    self._metrics[name] = self._grown(
                        self._metrics[name], (cap,)
                    )
                self._metric_dirty = self._grown(self._metric_dirty, (cap,))
        self._n = needed

    def _ensure_tag_capacity(self, n_tags: int) -> None:
        if n_tags > self._tag_cap:
            self._tag_cap = max(n_tags, 2 * self._tag_cap, 1024)
            self._tag_views = self._grown(
                self._tag_views, (self._tag_cap, len(self.codes))
            )
            self._degrees = self._grown(self._degrees, (self._tag_cap,))

    @staticmethod
    def _grown(array: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
        grown = np.zeros(shape, dtype=array.dtype)
        grown[: len(array)] = array
        return grown

    # -- snapshot / oracle ---------------------------------------------------

    def to_columnar(self) -> ColumnarDataset:
        """The cumulative snapshot as a :class:`ColumnarDataset`.

        Identical to what :func:`~repro.engine.columnar.build_columnar`
        would produce over the same videos in arrival order: rows in
        arrival order, vocabulary in first-seen order, CSR segments in
        first-seen member order.
        """
        n, n_tags = self._n, len(self._tags)
        if self._ex_len:
            self._compact_members()
        indptr = self._mem_indptr[: n_tags + 1].copy()
        indices = self._mem_indices[: indptr[-1]].copy()
        return ColumnarDataset(
            video_ids=tuple(self._ids),
            pop=self._pop[:n].copy(),
            views=self._views[:n].copy(),
            tags=tuple(self._tags),
            indptr=indptr,
            indices=indices,
            codes=self.codes,
        )

    def rebuild_oracle(self) -> np.ndarray:
        """Cold Eq. (3) on the cumulative snapshot (the exactness oracle)."""
        dataset = self.to_columnar()
        est = reconstruct_all(
            dataset.pop,
            dataset.views,
            self._prior,
            naive=self.reconstructor.naive,
            smoothing=self.reconstructor.smoothing,
        )
        return tag_segment_sums(est, dataset.indptr, dataset.indices)


# -- interop + the cold-rebuild oracle --------------------------------------


def batch_from_chunk(
    chunk,
    tag_names: np.ndarray,
    timestamp: float = 0.0,
) -> DeltaBatch:
    """Wrap a :class:`~repro.engine.outofcore.VideoChunk` as arrivals.

    Bootstraps an engine from any chunk source (the streaming
    generator, a store) — ``tag_names`` maps the chunk's vocabulary ids
    to the names the batch carries.
    """
    tag_names = np.asarray(tag_names)
    return DeltaBatch(
        timestamp=timestamp,
        new_video_ids=np.asarray(chunk.video_ids),
        new_views=np.asarray(chunk.views, dtype=np.int64),
        new_pop=np.asarray(chunk.pop),
        new_has_map=np.asarray(chunk.has_map, dtype=bool),
        new_tag_indptr=np.asarray(chunk.tag_indptr, dtype=np.int64),
        new_tags=tag_names[np.asarray(chunk.tag_ids, dtype=np.int64)],
    )


@dataclass(frozen=True)
class ColdRebuild:
    """Everything a full-snapshot rebuild materializes (see
    :func:`cold_rebuild`)."""

    tags: Tuple[str, ...]
    indptr: np.ndarray
    indices: np.ndarray
    est: np.ndarray
    tag_views: np.ndarray
    metrics: Dict[str, np.ndarray]


def cold_rebuild(
    pop: np.ndarray,
    views: np.ndarray,
    tag_indptr: np.ndarray,
    tag_names: np.ndarray,
    reconstructor: Optional[ViewReconstructor] = None,
    track_metrics: bool = False,
) -> ColdRebuild:
    """Rebuild every surface from raw cumulative arrays — the cost an
    engine *without* incremental ingestion pays per update.

    This is the fastest static path the library has: vectorized
    first-seen vocabulary over the raw tag-name entries, counting-sort
    CSR, :func:`reconstruct_all`, :func:`tag_segment_sums` — no Python
    per-video objects. Benchmark D1 times exactly this against
    :meth:`IncrementalEngine.apply`, and the property suite uses its
    output as the bit-identity oracle.

    Args:
        pop: ``(V, C)`` popularity rows of the *eligible* videos, in
            snapshot (arrival) order.
        views: ``(V,)`` cumulative view counts.
        tag_indptr: ``(V + 1,)`` pointer into ``tag_names``.
        tag_names: Per-video tag name entries, uploader order, already
            deduplicated per video.
        reconstructor: Estimator configuration (default: plain paper
            estimator).
        track_metrics: Also compute the row-metric surfaces.
    """
    if reconstructor is None:
        reconstructor = ViewReconstructor()
    tag_indptr = np.asarray(tag_indptr, dtype=np.int64)
    tag_names = np.asarray(tag_names)
    n_videos = len(tag_indptr) - 1
    if len(views) != n_videos or len(pop) != n_videos:
        raise ReconstructionError(
            f"cold_rebuild: {n_videos} tag segments vs {len(views)} views "
            f"and {len(pop)} pop rows"
        )

    # First-seen vocabulary: rank unique names by their first entry
    # position — the same numbering a serial scan assigns.
    unique, first_pos, inverse = np.unique(
        tag_names, return_index=True, return_inverse=True
    )
    order = np.argsort(first_pos, kind="stable")
    rank = np.empty(len(unique), dtype=np.int64)
    rank[order] = np.arange(len(unique), dtype=np.int64)
    entry_tags = rank[inverse]
    n_tags = len(unique)

    counts = np.bincount(entry_tags, minlength=n_tags).astype(np.int64)
    indptr = np.zeros(n_tags + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    entry_rows = np.repeat(
        np.arange(n_videos, dtype=np.int64), np.diff(tag_indptr)
    )
    csr_order = np.argsort(entry_tags, kind="stable")
    indices = entry_rows[csr_order]

    prior = None if reconstructor.naive else reconstructor.prior
    est = reconstruct_all(
        np.asarray(pop, dtype=np.float64),
        np.asarray(views, dtype=np.int64),
        prior,
        naive=reconstructor.naive,
        smoothing=reconstructor.smoothing,
    )
    table = tag_segment_sums(est, indptr, indices)

    metrics: Dict[str, np.ndarray] = {}
    if track_metrics:
        shares = rows_to_distributions(est)
        metrics = {
            "entropy": entropy_rows(shares),
            "gini": gini_rows(shares),
            "hhi": herfindahl_rows(shares),
            "top_share": top_k_share_rows(shares),
        }
    return ColdRebuild(
        tags=tuple(str(name) for name in unique[order]),
        indptr=indptr,
        indices=indices,
        est=est,
        tag_views=table,
        metrics=metrics,
    )
