"""Columnar compute engine: Eq. (1)–(3) as bulk linear algebra.

The per-video estimators in :mod:`repro.reconstruct` process one video
at a time; this package materializes a dataset once into matrices
(:mod:`~repro.engine.columnar`) and runs all three estimators and the
Eq. (3) tag aggregation as vectorized numpy kernels
(:mod:`~repro.engine.compute`). The columnar form persists as a
raw-array store of checksummed, memory-mappable files
(:mod:`~repro.engine.store`), so resumable pipelines skip
re-materialization. The per-video reference oracle lives with the tests
(``tests/oracles.py``); benchmark P1 tracks the speedup over it and the
property tests pin the engine to it within 1e-9.

Beyond a few hundred thousand videos the engine goes out-of-core: the
same store opened as memory maps, chunk-streaming builds and reductions
(:mod:`~repro.engine.outofcore`), and chunked kernels (``chunk_rows`` /
``dtype`` options in :mod:`~repro.engine.compute`) keep peak memory
proportional to a chunk while staying bit-identical to the dense
float64 path.

For *changing* corpora, :mod:`~repro.engine.incremental` keeps the
same surfaces live under timestamped view-delta batches — O(touched)
per batch, bit-identical to a cold rebuild of the cumulative snapshot
after any batch sequence.
"""

from repro.engine.columnar import ColumnarDataset, build_columnar
from repro.engine.incremental import (
    ApplyResult,
    ColdRebuild,
    DeltaBatch,
    IncrementalEngine,
    batch_from_chunk,
    cold_rebuild,
)
from repro.engine.compute import (
    reconstruct_all,
    reconstruct_rows,
    reconstruct_stream,
    tag_segment_sums,
    tag_segment_sums_streaming,
)
from repro.engine.outofcore import (
    VideoChunk,
    build_store_streaming,
    row_metrics_streaming,
    tag_views_streaming,
)
from repro.engine.store import open_store, save_store

__all__ = [
    "ColumnarDataset",
    "build_columnar",
    "reconstruct_all",
    "reconstruct_rows",
    "reconstruct_stream",
    "tag_segment_sums",
    "tag_segment_sums_streaming",
    "save_store",
    "open_store",
    "VideoChunk",
    "build_store_streaming",
    "tag_views_streaming",
    "row_metrics_streaming",
    "IncrementalEngine",
    "DeltaBatch",
    "ApplyResult",
    "ColdRebuild",
    "cold_rebuild",
    "batch_from_chunk",
]
