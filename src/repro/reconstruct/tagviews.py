"""Eq. (3): per-tag geographic view aggregation.

``views(t)[c] = Σ_{v ∈ videos(t)} views(v)[c]`` — the quantity behind the
paper's Figs. 2 and 3. :class:`TagViewsTable` materializes it for every
tag of a dataset.

Two build paths produce the identical table:

- **columnar** (the default): the dataset is materialized once through
  :mod:`repro.engine`, Eq. (1)–(2) runs vectorized for every video, and
  Eq. (3) becomes CSR segment sums — a handful of numpy ops total;
- **chunked** (``engine="chunked"``): the same arithmetic streamed in
  tag blocks via :func:`repro.engine.outofcore.tag_views_streaming` —
  the ``(V × C)`` estimate matrix is never materialized, so
  million-video (memmap-backed) datasets aggregate in bounded memory
  with bit-identical float64 output.

The property tests pin both to a per-video reference loop that lives
with the tests (``tests/oracles.py``). Either way the table is backed
by one dense ``(T × C)`` matrix plus a tag index, so matrix-level
consumers (:mod:`repro.analysis.signatures`,
:mod:`repro.analysis.tagstats`, :mod:`repro.analysis.conjecture`) can
grab :meth:`TagViewsTable.views_matrix` / :meth:`shares_matrix` instead
of looping tag by tag. A video's duplicate tags are counted **once** —
Eq. (3) sums over *distinct* tags per video.
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.datamodel.dataset import Dataset
from repro.errors import AnalysisError, ReconstructionError
from repro.reconstruct.views import ViewReconstructor
from repro.world.countries import CountryRegistry

#: Engine selection values for :class:`TagViewsTable`. ``auto`` and
#: ``columnar`` run the dense fast path; ``chunked`` streams the same
#: kernels in fixed-size blocks (bounded peak memory, identical float64
#: output).
ENGINES = ("auto", "columnar", "chunked")


class TagViewsTable:
    """The complete ``views(t)`` table over a dataset.

    Args:
        dataset: A (filtered) dataset; videos without a valid popularity
            vector are ignored, as in the paper.
        reconstructor: The Eq. (1)–(2) estimator to use; defaults to the
            standard one.
        engine: ``"auto"``/``"columnar"`` for the vectorized fast path,
            ``"chunked"`` for the streaming aggregation (bounded memory,
            identical float64 output).
        dtype: Compute precision for the engine paths (``None`` =
            float64; ``"float32"`` stays within ~1e-4 relative).
        block_entries: Streaming block budget (CSR entries per block)
            for the chunked engine; ``None`` uses the library default.

    The table is built eagerly in the constructor.
    """

    def __init__(
        self,
        dataset: Dataset,
        reconstructor: Optional[ViewReconstructor] = None,
        engine: str = "auto",
        dtype=None,
        block_entries: Optional[int] = None,
    ):
        if reconstructor is None:
            reconstructor = ViewReconstructor()
        self.reconstructor = reconstructor
        self.registry: CountryRegistry = reconstructor.registry
        if engine not in ENGINES:
            raise ReconstructionError(
                f"unknown engine {engine!r}; choose from {ENGINES}"
            )
        from repro.engine.columnar import build_columnar

        columnar = build_columnar(dataset, self.registry)
        if engine == "chunked":
            self._build_streaming(columnar, dtype, block_entries)
        else:
            self._build_from_columnar(columnar, dtype=dtype)

    @classmethod
    def from_columnar(
        cls,
        columnar,
        reconstructor: Optional[ViewReconstructor] = None,
        streaming: bool = False,
        dtype=None,
        block_entries: Optional[int] = None,
    ) -> "TagViewsTable":
        """Build directly from a prebuilt/persisted columnar dataset.

        This is the resume path: a pipeline that already holds a
        :class:`~repro.engine.columnar.ColumnarDataset` (e.g. opened from
        its raw-array store) skips re-materialization entirely and goes
        straight to the vectorized kernels. ``streaming=True`` aggregates
        through :func:`repro.engine.outofcore.tag_views_streaming` instead —
        the right mode for memmap-backed datasets, with bit-identical
        float64 results.
        """
        table = cls.__new__(cls)
        if reconstructor is None:
            reconstructor = ViewReconstructor()
        table.reconstructor = reconstructor
        table.registry = reconstructor.registry
        if streaming:
            table._build_streaming(columnar, dtype, block_entries)
        else:
            table._build_from_columnar(columnar, dtype=dtype)
        return table

    # -- construction -----------------------------------------------------

    def _build_from_columnar(self, columnar, dtype=None) -> None:
        from repro.engine.compute import tag_segment_sums

        estimated = self.reconstructor.matrix_for_columnar(columnar, dtype=dtype)
        matrix = tag_segment_sums(estimated, columnar.indptr, columnar.indices)
        self._finish(columnar.tags, matrix, columnar.tag_video_counts())

    def _build_streaming(
        self, columnar, dtype=None, block_entries: Optional[int] = None
    ) -> None:
        from repro.engine.outofcore import tag_views_streaming

        if tuple(columnar.codes) != tuple(self.registry.codes()):
            raise AnalysisError(
                "columnar dataset was built on a different country axis"
            )
        reconstructor = self.reconstructor
        matrix = tag_views_streaming(
            columnar,
            prior=reconstructor.prior,
            naive=reconstructor.naive,
            smoothing=reconstructor.smoothing,
            block_entries=block_entries,
            dtype=dtype,
        )
        self._finish(columnar.tags, matrix, columnar.tag_video_counts())

    def _finish(
        self,
        tags: Sequence[str],
        matrix: np.ndarray,
        counts: Sequence[int],
    ) -> None:
        self._tags: List[str] = list(tags)
        self._index: Dict[str, int] = dict(
            zip(self._tags, range(len(self._tags)))
        )
        self._matrix = matrix
        self._counts = np.asarray(counts, dtype=np.int64)
        self._totals = matrix.sum(axis=1)
        self._shares: Optional[np.ndarray] = None

    # -- access ---------------------------------------------------------------

    def __len__(self) -> int:
        """Number of distinct tags in the table."""
        return len(self._tags)

    def __contains__(self, tag: str) -> bool:
        return tag in self._index

    def tags(self) -> List[str]:
        return list(self._tags)

    def tag_id(self, tag: str) -> int:
        """Row number of ``tag`` in the table's matrices."""
        try:
            return self._index[tag]
        except KeyError:
            raise AnalysisError(f"tag not in table: {tag!r}") from None

    def views_for(self, tag: str) -> np.ndarray:
        """``views(t)`` as a vector on the registry axis (copy)."""
        return self._matrix[self.tag_id(tag)].copy()

    def shares_for(self, tag: str) -> np.ndarray:
        """``views(t)`` normalized to a distribution."""
        slot = self.tag_id(tag)
        total = self._totals[slot]
        if total <= 0:
            raise AnalysisError(f"tag {tag!r} has zero reconstructed views")
        return self._matrix[slot] / total

    def total_views(self, tag: str) -> float:
        """Worldwide reconstructed views carrying ``tag``."""
        return float(self._totals[self.tag_id(tag)])

    def video_count(self, tag: str) -> int:
        """|videos(t)| — number of contributing videos."""
        slot = self._index.get(tag)
        return int(self._counts[slot]) if slot is not None else 0

    def items(self) -> Iterator[Tuple[str, np.ndarray]]:
        """Iterate ``(tag, views-vector)`` pairs (vectors are live; do not
        mutate)."""
        for tag, row in zip(self._tags, self._matrix):
            yield tag, row

    # -- matrix-level access (the engine-facing surface) -------------------

    def views_matrix(self) -> np.ndarray:
        """The full ``(T × C)`` ``views(t)`` matrix, rows in tag order.

        Returned as a read-only view — copy before mutating.
        """
        view = self._matrix.view()
        view.flags.writeable = False
        return view

    def shares_matrix(self) -> np.ndarray:
        """Row-normalized ``views(t)`` (zero-mass tags stay zero rows).

        Computed once and cached; returned read-only.
        """
        if self._shares is None:
            from repro.engine.compute import rows_to_distributions

            self._shares = rows_to_distributions(self._matrix)
            self._shares.flags.writeable = False
        return self._shares

    def totals(self) -> np.ndarray:
        """Worldwide views per tag, aligned with :meth:`tags` (read-only)."""
        view = self._totals.view()
        view.flags.writeable = False
        return view

    def video_counts(self) -> np.ndarray:
        """|videos(t)| per tag, aligned with :meth:`tags` (read-only)."""
        view = self._counts.view()
        view.flags.writeable = False
        return view

    # -- rankings ----------------------------------------------------------

    def top_tags_by_views(self, count: int = 10) -> List[Tuple[str, float]]:
        """The ``count`` most-viewed tags, best first.

        The paper reports *pop* as "the second most viewed tag in our
        dataset" — this is that ranking. Top-k over the precomputed
        totals via a bounded heap: no full sort of a 700k-tag world.
        """
        best = heapq.nlargest(
            count,
            zip(self._tags, self._totals),
            key=lambda pair: pair[1],
        )
        return [(tag, float(total)) for tag, total in best]

    def top_country(self, tag: str) -> str:
        """The country with the largest share of ``views(t)``."""
        slot = self.tag_id(tag)
        return self.registry.codes()[int(np.argmax(self._matrix[slot]))]
