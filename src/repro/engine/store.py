"""Raw-array columnar store: the on-disk form of a columnar dataset.

The store keeps a :class:`~repro.engine.columnar.ColumnarDataset` as a
*directory* of flat little-endian arrays, so any of them can be
memory-mapped in place at any scale. It is the one persisted columnar
format: :func:`repro.pipeline.run_pipeline` keeps its reconstruct stage
here, and the out-of-core build streams straight into it::

    store/
      meta.json          # format, registry axis, dtypes, shapes (+ .sha256)
      pop.bin            # (V, C) intensity matrix, uint8 by default
      views.bin          # (V,) int64
      video_ids.bin      # (V,) fixed-width unicode
      tags.bin           # (T,) fixed-width unicode
      indptr.bin         # (T+1,) int64
      indices.bin        # (nnz,) int64

Every file goes to disk through
:class:`~repro.durability.artifacts.ArtifactStream` — atomically, hashed
as it streams past — so the store carries the same ``.sha256`` sidecar
discipline as every other artifact, without ever holding an array-sized
buffer. :func:`open_store` verifies the sidecars by streaming too, then
hands back ``numpy.memmap`` views: opening a 1M-video store reads the
few-KB metadata and *maps* the rest, so resume never pulls the matrix
through RAM. The chunked kernels in :mod:`repro.engine.compute` consume
those maps directly (``pop`` stays uint8 until each chunk is widened).

:class:`StoreWriter` is the out-of-core build face: it accepts row
batches as they are generated (see
:func:`repro.engine.outofcore.build_store_streaming`) and never holds
more than one batch.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple, Union

import numpy as np

from repro.durability import artifacts
from repro.durability.fsfaults import Filesystem, REAL_FILESYSTEM
from repro.engine.columnar import ColumnarDataset
from repro.errors import ArtifactError, ReconstructionError
from repro.world.countries import CountryRegistry, default_registry

PathLike = Union[str, Path]

FORMAT = "repro-columnar-store-v1"

META_NAME = "meta.json"

#: Array files a store holds, in write order.
ARRAY_NAMES = ("pop", "views", "video_ids", "tags", "indptr", "indices")

#: Every file of a store, relative to its directory (sidecars aside).
STORE_FILES = (META_NAME,) + tuple(f"{name}.bin" for name in ARRAY_NAMES)

#: Allowed on-disk dtypes for the intensity matrix.
POP_DTYPES = ("uint8", "float32", "float64")

#: Max bytes written per slice when spilling an in-memory array.
_WRITE_SLICE_BYTES = 4 << 20


def _fs(fs: Optional[Filesystem]) -> Filesystem:
    return fs if fs is not None else REAL_FILESYSTEM


def _array_path(root: Path, name: str) -> Path:
    return root / f"{name}.bin"


def _write_array(stream: artifacts.ArtifactStream, array: np.ndarray) -> None:
    """Write ``array`` through ``stream`` in bounded slices."""
    array = np.ascontiguousarray(array)
    if array.nbytes == 0:
        return
    flat = array.reshape(-1)
    step = max(1, _WRITE_SLICE_BYTES // array.itemsize)
    for start in range(0, flat.size, step):
        stream.write(flat[start:start + step].tobytes())


class StoreWriter:
    """Stream a columnar store to disk one row batch at a time.

    Call :meth:`append` with ``(pop_rows, views_rows, video_ids)``
    batches in row order, then :meth:`finish` with the tag-side arrays
    once the incidence is known. Nothing is renamed into place until
    ``finish`` commits, and :meth:`abort` discards all temp files, so a
    crashed build never leaves a half-store that verifies.
    """

    def __init__(
        self,
        path: PathLike,
        codes: Sequence[str],
        fs: Optional[Filesystem] = None,
        pop_dtype: str = "uint8",
    ):
        if pop_dtype not in POP_DTYPES:
            raise ReconstructionError(
                f"pop_dtype must be one of {POP_DTYPES}, got {pop_dtype!r}"
            )
        self._root = Path(path)
        self._fs = _fs(fs)
        self._codes = tuple(codes)
        self._pop_dtype = np.dtype(pop_dtype)
        os.makedirs(self._root, exist_ok=True)
        self._streams: Dict[str, artifacts.ArtifactStream] = {}
        for name in ("pop", "views", "video_ids"):
            self._streams[name] = artifacts.ArtifactStream(
                _array_path(self._root, name), fs=self._fs
            )
        self._n_videos = 0
        self._id_dtype: Optional[np.dtype] = None
        self._finished = False

    @property
    def n_videos(self) -> int:
        return self._n_videos

    def append(
        self,
        pop_rows: np.ndarray,
        views_rows: np.ndarray,
        video_ids: np.ndarray,
    ) -> None:
        """Write one batch of rows; batches concatenate in append order."""
        pop_rows = np.ascontiguousarray(pop_rows, dtype=self._pop_dtype)
        if pop_rows.ndim != 2 or pop_rows.shape[1] != len(self._codes):
            raise ReconstructionError(
                f"pop batch shape {pop_rows.shape} does not match "
                f"{len(self._codes)} countries"
            )
        views_rows = np.ascontiguousarray(views_rows, dtype=np.int64)
        ids = np.asarray(video_ids)
        if not (len(pop_rows) == len(views_rows) == len(ids)):
            raise ReconstructionError("store batch lengths disagree")
        if ids.dtype.kind != "U":
            ids = ids.astype(np.str_)
        if self._id_dtype is None:
            self._id_dtype = ids.dtype
        elif ids.dtype != self._id_dtype:
            if ids.dtype.itemsize > self._id_dtype.itemsize:
                raise ReconstructionError(
                    "video id width grew across batches; ids must share "
                    "one fixed width"
                )
            ids = ids.astype(self._id_dtype)
        _write_array(self._streams["pop"], pop_rows)
        _write_array(self._streams["views"], views_rows)
        _write_array(self._streams["video_ids"], np.ascontiguousarray(ids))
        self._n_videos += len(pop_rows)

    def finish(
        self,
        tags: np.ndarray,
        indptr: np.ndarray,
        indices: np.ndarray,
    ) -> Path:
        """Write the tag side, commit every file, then the metadata."""
        if self._finished:
            raise ArtifactError(f"store already finished: {self._root}")
        tags = np.asarray(tags)
        if tags.dtype.kind != "U":
            tags = tags.astype(np.str_)
        indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        indices = np.ascontiguousarray(indices, dtype=np.int64)
        if len(indptr) != len(tags) + 1:
            raise ReconstructionError("store indptr length disagrees")
        tail = {
            "tags": tags,
            "indptr": indptr,
            "indices": indices,
        }
        shapes: Dict[str, Tuple[int, ...]] = {
            "pop": (self._n_videos, len(self._codes)),
            "views": (self._n_videos,),
            "video_ids": (self._n_videos,),
            "tags": tags.shape,
            "indptr": indptr.shape,
            "indices": indices.shape,
        }
        dtypes: Dict[str, str] = {
            "pop": self._pop_dtype.str,
            "views": "<i8",
            "video_ids": (self._id_dtype or np.dtype("<U1")).str,
            "tags": tags.dtype.str if len(tags) else "<U1",
            "indptr": "<i8",
            "indices": "<i8",
        }
        try:
            for name, array in tail.items():
                stream = artifacts.ArtifactStream(
                    _array_path(self._root, name), fs=self._fs
                )
                self._streams[name] = stream
                _write_array(stream, array)
            for stream in self._streams.values():
                stream.commit()
        except BaseException:
            self.abort()
            raise
        meta = {
            "format": FORMAT,
            "codes": list(self._codes),
            "arrays": {
                name: {"dtype": dtypes[name], "shape": list(shapes[name])}
                for name in ARRAY_NAMES
            },
        }
        artifacts.atomic_write_text(
            self._root / META_NAME,
            json.dumps(meta, indent=2, sort_keys=True),
            fs=self._fs,
            checksum=True,
        )
        self._finished = True
        return self._root

    def abort(self) -> None:
        """Discard all pending temp files; committed files stay."""
        if self._finished:
            return
        for stream in self._streams.values():
            stream.abort()


def save_store(
    columnar: ColumnarDataset,
    path: PathLike,
    fs: Optional[Filesystem] = None,
    pop_dtype: str = "uint8",
) -> Path:
    """Write an in-memory :class:`ColumnarDataset` as a raw-array store.

    ``pop_dtype="uint8"`` (the default) is lossless for crawl
    intensities (they live in 0..61) and 8× smaller than float64;
    ``"float32"``/``"float64"`` keep fractional matrices intact.
    """
    writer = StoreWriter(path, columnar.codes, fs=fs, pop_dtype=pop_dtype)
    try:
        writer.append(
            columnar.pop, columnar.views, np.asarray(columnar.video_ids)
        )
        return writer.finish(
            np.asarray(columnar.tags), columnar.indptr, columnar.indices
        )
    except BaseException:
        writer.abort()
        raise


def open_store(
    path: PathLike,
    registry: Optional[CountryRegistry] = None,
    fs: Optional[Filesystem] = None,
    verify: bool = True,
    mmap: bool = True,
) -> ColumnarDataset:
    """Open a store as a :class:`ColumnarDataset` of ``numpy.memmap`` views.

    The tag vocabulary comes back as a tuple of ``str``, as
    :func:`~repro.engine.columnar.build_columnar` builds it; every other
    array stays a numpy array.

    Args:
        path: The store directory.
        registry: When given, the stored axis must match its codes.
        fs: Filesystem facade for the integrity checks.
        verify: Stream-verify every file's ``.sha256`` sidecar first.
        mmap: Map the arrays read-only (default). ``False`` reads them
            eagerly into RAM instead — same result, for callers that
            will touch every row many times.

    Raises:
        ArtifactError: Missing or non-store directory.
        ArtifactIntegrityError: A file fails its checksum.
        ReconstructionError: Inconsistent arrays or a mismatched axis.
    """
    root = Path(path)
    fs = _fs(fs)
    meta_path = root / META_NAME
    if not fs.exists(meta_path):
        raise ArtifactError(f"not a columnar store (no {META_NAME}): {root}")
    if verify:
        artifacts.verify_artifact(meta_path, fs=fs)
        for name in ARRAY_NAMES:
            artifacts.verify_artifact(_array_path(root, name), fs=fs)
    try:
        meta = json.loads(fs.read_bytes(meta_path).decode("utf-8"))
    except (OSError, ValueError, UnicodeDecodeError) as exc:
        raise ArtifactError(f"cannot read store metadata {meta_path}: {exc}") from exc
    if meta.get("format") != FORMAT:
        raise ArtifactError(
            f"{root} has unsupported store format {meta.get('format')!r}"
        )
    arrays: Dict[str, np.ndarray] = {}
    for name in ARRAY_NAMES:
        spec = meta["arrays"][name]
        dtype = np.dtype(str(spec["dtype"]))
        shape = tuple(int(s) for s in spec["shape"])
        file = _array_path(root, name)
        if not fs.exists(file):
            raise ArtifactError(f"store array missing: {file}")
        if int(np.prod(shape)) == 0:
            arrays[name] = np.zeros(shape, dtype=dtype)
        elif mmap:
            arrays[name] = np.memmap(file, dtype=dtype, mode="r", shape=shape)
        else:
            arrays[name] = np.fromfile(file, dtype=dtype).reshape(shape)
    columnar = ColumnarDataset(
        video_ids=arrays["video_ids"],
        pop=arrays["pop"],
        views=arrays["views"],
        # Plain ``str`` labels, as an in-memory build has: every consumer
        # of the vocabulary reads it whole anyway.
        tags=tuple(arrays["tags"].tolist()),
        indptr=arrays["indptr"],
        indices=arrays["indices"],
        codes=tuple(str(c) for c in meta["codes"]),
    )
    columnar.validate()
    if registry is not None and tuple(registry.codes()) != columnar.codes:
        raise ReconstructionError(
            f"columnar store {root} was built on a different country axis"
        )
    return columnar
