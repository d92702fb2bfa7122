"""Vectorized Eq. (1)–(3) kernels and row-wise distribution metrics.

Every function here is the whole-dataset counterpart of a per-video
routine, kept numerically aligned with it:

- :func:`reconstruct_all` ↔ :func:`repro.reconstruct.views.reconstruct_views`
  (and its naive/smoothed variants), one matrix expression instead of a
  per-video loop;
- :func:`tag_segment_sums` ↔ the per-video ``views(t) += estimated``
  accumulation of Eq. (3), as CSR segment sums;
- the ``*_rows`` metrics ↔ :mod:`repro.analysis.metrics`, one value per
  matrix row.

The per-video loops are the reference oracle (the Eq. (1)–(3) table
loops live in ``tests/oracles.py``); the equivalence property tests pin
these kernels to them within 1e-9.

Out-of-core extension
---------------------

Eq. (1)–(2) are row-separable and Eq. (3) sums disjoint CSR segments, so
none of them ever needs the full ``(V, C)`` matrix in memory:

- every kernel accepts ``chunk_rows`` and then walks the input in
  fixed-size row slices with running reductions. Chunking changes *no*
  arithmetic — each row is computed by the same expressions in the same
  order — so float64 chunked output is **bit-identical** to the dense
  path for any chunk size (pinned by the property suite);
- :func:`reconstruct_rows` is the shared per-row core; dense, chunked
  and streaming callers all go through it, which is what makes the
  bit-for-bit claim hold by construction;
- :func:`tag_segment_sums_streaming` evaluates Eq. (3) from a
  ``row_source`` callback that reconstructs just the rows a tag block
  references (typically off a ``numpy.memmap``), so the full estimate
  matrix never exists;
- ``dtype="float32"`` halves memory and bandwidth. All inputs are cast
  to float32 once per chunk and every op runs in float32; with C = 62
  columns and pairwise summation the relative error against the float64
  oracle stays ≲ 1e-6 — the suite enforces ≤ 1e-4.
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional, Tuple, Union

import numpy as np

from repro.errors import ReconstructionError

#: Cap on gathered rows per :func:`tag_segment_sums` block. Bounds the
#: transient ``(block_nnz × C)`` gather so Eq. (3) streams over arbitrarily
#: large incidence structures at a fixed memory cost.
SEGMENT_BLOCK_ENTRIES = 2_000_000

#: Entry budget for :func:`tag_segment_sums_streaming` blocks. Smaller
#: than the dense default because the streaming path also pays for the
#: reconstructed ``(block_nnz, C)`` rows, not just the gather.
STREAMING_BLOCK_ENTRIES = 131_072

#: Default row-slice size for chunked kernels (≈32 MB of float64 at C=62).
DEFAULT_CHUNK_ROWS = 65_536

DTypeLike = Union[None, str, type, np.dtype]

_DTYPE_NAMES = {"float32": np.float32, "float64": np.float64}


def resolve_dtype(dtype: DTypeLike) -> type:
    """Normalize a kernel ``dtype`` option to float32/float64; None → float64."""
    if dtype is None:
        return np.float64
    if isinstance(dtype, str):
        try:
            return _DTYPE_NAMES[dtype]
        except KeyError:
            raise ReconstructionError(
                f"dtype must be one of {sorted(_DTYPE_NAMES)}, got {dtype!r}"
            ) from None
    resolved = np.dtype(dtype)
    if resolved == np.dtype(np.float32):
        return np.float32
    if resolved == np.dtype(np.float64):
        return np.float64
    raise ReconstructionError(
        f"dtype must be one of {sorted(_DTYPE_NAMES)}, got {dtype!r}"
    )


def iter_row_chunks(
    n_rows: int, chunk_rows: Optional[int] = None
) -> Iterator[Tuple[int, int]]:
    """Yield ``(start, stop)`` row slices; ``None`` means one full slice."""
    if chunk_rows is None:
        yield 0, n_rows
        return
    if chunk_rows < 1:
        raise ReconstructionError(f"chunk_rows must be >= 1, got {chunk_rows}")
    start = 0
    while start < n_rows:
        stop = min(start + chunk_rows, n_rows)
        yield start, stop
        start = stop


def reconstruct_rows(
    pop_rows: np.ndarray,
    views_rows: np.ndarray,
    prior: Optional[np.ndarray] = None,
    naive: bool = False,
    smoothing: float = 0.0,
    dtype: DTypeLike = None,
    row_offset: int = 0,
) -> np.ndarray:
    """Eq. (1)–(2) for an arbitrary batch of rows — the shared core.

    Dense, chunked and streaming reconstruction all call this, so they
    are the same arithmetic by construction. Inputs are cast to
    ``dtype`` (default float64) and every op runs in it.

    ``row_offset`` only labels the error message when a row's weights
    sum to zero, so streaming callers report global row numbers.
    """
    dtype = resolve_dtype(dtype)
    pop_rows = np.asarray(pop_rows, dtype=dtype)
    views_rows = np.asarray(views_rows)
    if naive:
        weights = pop_rows
    else:
        prior = np.asarray(prior, dtype=dtype)
        intensities = pop_rows + dtype(smoothing) if smoothing > 0 else pop_rows
        weights = intensities * prior[np.newaxis, :]
    denominator = weights.sum(axis=1)
    bad = np.flatnonzero(denominator <= 0)
    if bad.size:
        raise ReconstructionError(
            f"popularity × traffic weights sum to zero for {bad.size} "
            f"video row(s), first at row {int(bad[0]) + row_offset}"
        )
    # One fused pass: row scale = views/denom (a (n,) vector), then a
    # single (n, C) multiply — instead of separate full-matrix multiply
    # and divide passes. Associates as weights · (views/denom), which
    # agrees with the scalar oracle's (views · weights)/denom to ~1 ulp,
    # far inside the 1e-9 equivalence bound; every engine path shares
    # this function, so chunked/streaming stay bit-identical to dense.
    scale = (views_rows.astype(dtype) / denominator)[:, np.newaxis]
    if weights is pop_rows:
        # naive mode aliases the caller's rows — don't write into them.
        return weights * scale
    np.multiply(weights, scale, out=weights)
    return weights


def _check_reconstruct_args(
    pop: np.ndarray,
    views: np.ndarray,
    prior: Optional[np.ndarray],
    naive: bool,
    smoothing: float,
) -> None:
    if smoothing < 0:
        raise ReconstructionError(f"smoothing must be >= 0, got {smoothing}")
    if pop.ndim != 2:
        raise ReconstructionError(f"pop must be 2-D, got shape {pop.shape}")
    if views.shape != (pop.shape[0],):
        raise ReconstructionError(
            f"views shape {views.shape} does not match {pop.shape[0]} rows"
        )
    if not naive:
        if prior is None:
            raise ReconstructionError("non-naive reconstruction needs a prior")
        prior = np.asarray(prior)
        if prior.shape != (pop.shape[1],):
            raise ReconstructionError(
                f"axis mismatch: pop over {pop.shape[1]} countries, "
                f"prior over {prior.shape[0]}"
            )


def reconstruct_all(
    pop: np.ndarray,
    views: np.ndarray,
    prior: Optional[np.ndarray] = None,
    naive: bool = False,
    smoothing: float = 0.0,
    chunk_rows: Optional[int] = None,
    dtype: DTypeLike = None,
) -> np.ndarray:
    """Eq. (1)–(2) for every video at once.

    Args:
        pop: ``(V, C)`` intensity matrix (any dtype, incl. a uint8 memmap).
        views: ``(V,)`` worldwide view counts.
        prior: ``(C,)`` traffic shares ``p̂_yt`` (ignored in naive mode).
        naive: Use the share-readout strawman (intensities as shares).
        smoothing: Additive intensity smoothing λ (ignored in naive
            mode, exactly as the per-video estimator does).
        chunk_rows: Process this many rows per slice. ``None`` computes
            in one shot; any value yields bit-identical float64 output
            because rows never interact.
        dtype: ``"float64"`` (default) or ``"float32"`` compute/storage
            precision.

    Returns:
        ``(V, C)`` matrix in ``dtype``; row ``v`` sums to ``views[v]``.

    Raises:
        ReconstructionError: Axis mismatch, negative smoothing, or a row
            whose weights sum to zero (an empty popularity vector — the
            paper's filter removes those before reconstruction).
    """
    dtype = resolve_dtype(dtype)
    pop = pop if isinstance(pop, np.memmap) else np.asarray(pop)
    views = np.asarray(views)
    _check_reconstruct_args(pop, views, prior, naive, smoothing)
    if chunk_rows is None:
        # Single-slice fast path: same reconstruct_rows call, minus the
        # extra (V, C) allocation + copy through ``out``.
        return reconstruct_rows(
            pop, views, prior, naive=naive, smoothing=smoothing, dtype=dtype,
        )
    out = np.empty(pop.shape, dtype=dtype)
    for start, stop in iter_row_chunks(pop.shape[0], chunk_rows):
        out[start:stop] = reconstruct_rows(
            pop[start:stop],
            views[start:stop],
            prior,
            naive=naive,
            smoothing=smoothing,
            dtype=dtype,
            row_offset=start,
        )
    return out


def reconstruct_stream(
    pop: np.ndarray,
    views: np.ndarray,
    prior: Optional[np.ndarray] = None,
    naive: bool = False,
    smoothing: float = 0.0,
    chunk_rows: int = DEFAULT_CHUNK_ROWS,
    dtype: DTypeLike = None,
) -> Iterator[Tuple[int, int, np.ndarray]]:
    """Yield ``(start, stop, block)`` reconstructed row slices.

    The out-of-core face of :func:`reconstruct_all`: only one
    ``(chunk_rows, C)`` block is alive at a time, so callers can reduce
    over a million-video memmap without materializing V×C.
    """
    dtype = resolve_dtype(dtype)
    pop = pop if isinstance(pop, np.memmap) else np.asarray(pop)
    views = np.asarray(views)
    _check_reconstruct_args(pop, views, prior, naive, smoothing)
    for start, stop in iter_row_chunks(pop.shape[0], chunk_rows):
        yield start, stop, reconstruct_rows(
            pop[start:stop],
            views[start:stop],
            prior,
            naive=naive,
            smoothing=smoothing,
            dtype=dtype,
            row_offset=start,
        )


# -- Eq. (3): CSR segment sums ---------------------------------------------


def _iter_segment_blocks(
    indptr: np.ndarray, n_tags: int, block_entries: int
) -> Iterator[Tuple[int, int, int, int]]:
    """Yield ``(tag_start, tag_end, entry_start, entry_end)`` blocks.

    Each block takes as many whole tags as fit in the entry budget
    (always at least one, so oversized tags still fit). Blocks never
    split a tag's segment — which is why blocked summation is
    bit-identical to whole-matrix summation: each tag is reduced by
    exactly one gather + sum either way. ``indptr`` is nondecreasing, so
    the widest admissible block ends at the last ``indptr`` value within
    budget — one ``searchsorted`` per block instead of a per-tag loop.
    """
    tag_start = 0
    while tag_start < n_tags:
        entry_start = int(indptr[tag_start])
        tag_end = (
            int(
                np.searchsorted(
                    indptr, entry_start + block_entries, side="right"
                )
            )
            - 1
        )
        tag_end = max(tag_end, tag_start + 1)
        tag_end = min(tag_end, n_tags)
        yield tag_start, tag_end, entry_start, int(indptr[tag_end])
        tag_start = tag_end


def _length_grouped_sums(
    out: np.ndarray,
    tag_offset: int,
    starts: np.ndarray,
    counts: np.ndarray,
    gather: Callable[[np.ndarray], np.ndarray],
) -> None:
    """Sum each tag's segment, bucketing tags by segment length.

    Every tag with ``k`` member videos is summed in one ``(n_k, k, C)``
    gather + ``sum(axis=1)``. Tag degrees follow a power law, so a block
    holds only a few dozen distinct lengths — a few large contiguous
    reductions beat ``np.add.reduceat``'s per-segment ufunc dispatch by
    an order of magnitude. ``gather`` maps a position array to rows;
    dense and streaming callers differ only in that indirection.

    One stable argsort groups the tags by length up front; each group is
    then a slice of the sorted order, so the per-group cost is just the
    gather + reduction (no per-length boolean scans). Group membership
    and within-group order are exactly what per-length ``flatnonzero``
    would produce, and each output row is assigned once — bitwise
    equality with the naive grouping is structural.
    """
    order = np.argsort(counts, kind="stable")
    sorted_counts = counts[order]
    boundaries = np.flatnonzero(np.diff(sorted_counts)) + 1
    group_starts = np.concatenate(([0], boundaries))
    group_ends = np.concatenate((boundaries, [len(sorted_counts)]))
    for group_start, group_end in zip(group_starts, group_ends):
        k = int(sorted_counts[group_start])
        if k == 0:
            continue  # empty segments keep their zero row
        selected = order[group_start:group_end]
        if k == 1:
            # Singleton segments (the power-law bulk): one 1-D gather,
            # no (n, 1, C) intermediate, no reduction.
            out[tag_offset + selected] = gather(starts[selected])
            continue
        positions = starts[selected, np.newaxis] + np.arange(k)
        out[tag_offset + selected] = gather(positions).sum(axis=1)


def tag_segment_sums(
    matrix: np.ndarray,
    indptr: np.ndarray,
    indices: np.ndarray,
    block_entries: int = SEGMENT_BLOCK_ENTRIES,
) -> np.ndarray:
    """Eq. (3): per-tag sums of ``matrix`` rows over a CSR incidence.

    ``out[t] = Σ_{v ∈ indices[indptr[t]:indptr[t+1]]} matrix[v]`` — the
    ``views(t)`` table, processed in blocks of at most ``block_entries``
    gathered rows so peak memory stays bounded.

    Summation order within a segment differs from the scalar oracle's
    sequential accumulation, but every addend is nonnegative, so the
    results agree to ~n·ε — far inside the 1e-9 equivalence bound.
    """
    indptr = np.asarray(indptr, dtype=np.int64)
    indices = np.asarray(indices, dtype=np.int64)
    n_tags = len(indptr) - 1
    out = np.zeros((n_tags, matrix.shape[1]), dtype=np.float64)
    if n_tags == 0 or len(indices) == 0:
        return out
    if block_entries < 1:
        raise ReconstructionError("block_entries must be >= 1")

    for tag_start, tag_end, entry_start, entry_end in _iter_segment_blocks(
        indptr, n_tags, block_entries
    ):
        if entry_end <= entry_start:
            continue
        starts = indptr[tag_start:tag_end]
        counts = np.diff(indptr[tag_start:tag_end + 1])
        _length_grouped_sums(
            out, tag_start, starts, counts,
            lambda positions: matrix[indices[positions]],
        )
    return out


def tag_segment_sums_streaming(
    row_source: Callable[[np.ndarray], np.ndarray],
    indptr: np.ndarray,
    indices: np.ndarray,
    n_columns: int,
    block_entries: int = STREAMING_BLOCK_ENTRIES,
    dtype: DTypeLike = None,
) -> np.ndarray:
    """Eq. (3) without the ``(V, C)`` matrix: rows come from a callback.

    ``row_source(video_rows)`` must return the reconstructed ``(len, C)``
    rows for the given video indices (duplicates allowed) — typically
    :func:`reconstruct_rows` over slices of a uint8 memmap. Each tag
    block gathers only the entries it references, so peak memory is
    ``O(block_entries × C)`` regardless of V.

    Bit-for-bit with the dense path in float64: blocks never split a
    segment, the per-row reconstruction is the same
    :func:`reconstruct_rows` arithmetic, and the final gather +
    ``sum(axis=1)`` sees the same values in the same order. Only rows
    referenced by at least one tag are ever evaluated (untagged rows
    don't feed Eq. (3) anyway).
    """
    indptr = np.asarray(indptr, dtype=np.int64)
    indices = np.asarray(indices, dtype=np.int64)
    n_tags = len(indptr) - 1
    out = np.zeros((n_tags, n_columns), dtype=resolve_dtype(dtype))
    if n_tags == 0 or len(indices) == 0:
        return out
    if block_entries < 1:
        raise ReconstructionError("block_entries must be >= 1")

    for tag_start, tag_end, entry_start, entry_end in _iter_segment_blocks(
        indptr, n_tags, block_entries
    ):
        if entry_end <= entry_start:
            continue
        block_rows = row_source(indices[entry_start:entry_end])
        rel_starts = indptr[tag_start:tag_end] - entry_start
        counts = np.diff(indptr[tag_start:tag_end + 1])
        _length_grouped_sums(
            out, tag_start, rel_starts, counts,
            lambda positions: block_rows[positions],
        )
    return out


# -- row-wise distribution metrics (vector analogues of analysis.metrics) --


def rows_to_distributions(
    matrix: np.ndarray,
    chunk_rows: Optional[int] = None,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Normalize each nonnegative row to sum 1; zero rows stay zero.

    Callers that must reject zero rows can mask on ``matrix.sum(axis=1)``
    first — keeping the policy out of the kernel lets report builders
    filter instead of raise.
    """
    if out is None:
        out = np.empty(matrix.shape, dtype=np.float64)
    for start, stop in iter_row_chunks(matrix.shape[0], chunk_rows):
        block = np.asarray(matrix[start:stop], dtype=np.float64)
        totals = block.sum(axis=1, keepdims=True)
        with np.errstate(invalid="ignore", divide="ignore"):
            out[start:stop] = np.where(totals > 0, block / totals, 0.0)
    return out


def entropy_rows(
    shares: np.ndarray, chunk_rows: Optional[int] = None
) -> np.ndarray:
    """Normalized Shannon entropy per row, in [0, 1]."""
    n = shares.shape[1]
    if n <= 1:
        return np.zeros(shares.shape[0])
    out = np.empty(shares.shape[0], dtype=np.float64)
    for start, stop in iter_row_chunks(shares.shape[0], chunk_rows):
        block = np.asarray(shares[start:stop], dtype=np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(block > 0, block * np.log(block), 0.0)
        out[start:stop] = -terms.sum(axis=1) / np.log(n)
    return out


def gini_rows(shares: np.ndarray, chunk_rows: Optional[int] = None) -> np.ndarray:
    """Gini coefficient per row, in [0, 1)."""
    n = shares.shape[1]
    index = np.arange(1, n + 1, dtype=np.float64)
    out = np.empty(shares.shape[0], dtype=np.float64)
    for start, stop in iter_row_chunks(shares.shape[0], chunk_rows):
        ordered = np.sort(np.asarray(shares[start:stop], dtype=np.float64), axis=1)
        out[start:stop] = (2.0 * (ordered * index).sum(axis=1)) / n - (n + 1.0) / n
    return out


def herfindahl_rows(
    shares: np.ndarray, chunk_rows: Optional[int] = None
) -> np.ndarray:
    """Herfindahl–Hirschman index per row, Σ share²."""
    out = np.empty(shares.shape[0], dtype=np.float64)
    for start, stop in iter_row_chunks(shares.shape[0], chunk_rows):
        block = np.asarray(shares[start:stop], dtype=np.float64)
        out[start:stop] = (block * block).sum(axis=1)
    return out


def top_k_share_rows(
    shares: np.ndarray, k: int = 1, chunk_rows: Optional[int] = None
) -> np.ndarray:
    """Combined share of each row's ``k`` largest entries."""
    if k < 1:
        raise ReconstructionError(f"k must be >= 1, got {k}")
    n = shares.shape[1]
    k = min(k, n)
    out = np.empty(shares.shape[0], dtype=np.float64)
    for start, stop in iter_row_chunks(shares.shape[0], chunk_rows):
        block = np.asarray(shares[start:stop], dtype=np.float64)
        if k == 1:
            out[start:stop] = block.max(axis=1)
        else:
            part = np.partition(block, n - k, axis=1)
            out[start:stop] = part[:, n - k:].sum(axis=1)
    return out


def jensen_shannon_rows(
    shares: np.ndarray, q: np.ndarray, chunk_rows: Optional[int] = None
) -> np.ndarray:
    """Jensen–Shannon divergence of each row to distribution ``q``."""
    q = np.asarray(q, dtype=np.float64)
    if q.shape != (shares.shape[1],):
        raise ReconstructionError(
            f"axis mismatch: rows over {shares.shape[1]}, q over {q.shape}"
        )
    out = np.empty(shares.shape[0], dtype=np.float64)
    for start, stop in iter_row_chunks(shares.shape[0], chunk_rows):
        block = np.asarray(shares[start:stop], dtype=np.float64)
        m = 0.5 * (block + q[np.newaxis, :])
        with np.errstate(divide="ignore", invalid="ignore"):
            kl_p = np.where(block > 0, block * np.log(block / m), 0.0).sum(axis=1)
            kl_q = np.where(
                q[np.newaxis, :] > 0,
                q[np.newaxis, :] * np.log(q[np.newaxis, :] / m),
                0.0,
            ).sum(axis=1)
        out[start:stop] = np.maximum(0.5 * kl_p + 0.5 * kl_q, 0.0)
    return out
