"""P1 — perf regression gate: columnar engine vs the scalar oracle.

Times the Eq. (1)–(3) path — per-video reconstruction plus the
``views(t)`` aggregation — through the columnar engine and the per-video
scalar oracle (``tests/oracles.py``, so run this file with
``python -m pytest`` from the repository root) on the same filtered
dataset, asserts the columnar output matches the scalar reference within
1e-9, and enforces a minimum speedup. Results are written as
machine-readable JSON to ``BENCH_p1.json`` at the repository root so CI
can archive the numbers and fail on regression.

What is gated: the **compute** path — ``TagViewsTable.from_columnar``
over a prebuilt :class:`ColumnarDataset`, i.e. the vectorized Eq. (1)–(3)
kernels the pipeline runs on every resume from its persisted columnar
store — against the scalar per-video loop. The
one-time columnar materialization (``build_columnar``) is timed and
reported (``build_seconds``, ``cold_speedup``) but not gated: it is
bounded by Python-object traversal the scalar path pays on *every* run,
while the columnar engine pays it once per dataset.

Two gates live here:

- ``test_p1_columnar_speedup`` — the historical speedup gate on the
  ``medium`` preset (in-memory, scalar-vs-columnar);
- ``test_p1_scaling_curve`` — the out-of-core scaling gate: streams a
  paper-scale universe (``xxlarge`` config) through
  :class:`~repro.synth.stream.StreamingUniverse` →
  :func:`~repro.engine.outofcore.build_store_streaming` →
  :func:`~repro.engine.outofcore.tag_views_streaming` at each size in
  ``BENCH_P1_SIZES``, recording videos/sec, build seconds and peak RSS
  per point, and asserts the largest point stays under the RSS ceiling.
  At sizes small enough to afford a dense run, the streamed table is
  additionally pinned bit-for-bit to the dense engine (float64) and to
  ≤1e-4 relative in float32.

Knobs (environment):

- ``BENCH_P1_PRESET`` — universe preset (default ``medium``);
- ``BENCH_P1_MIN_SPEEDUP`` — override the speedup floor (default 10 on
  ``medium``/larger, 5 on the smaller presets CI uses);
- ``BENCH_P1_SIZES`` — comma-separated video counts for the scaling
  curve (default ``100000,1000000``). Each size is a *prefix* of the
  same stream, so the 100k corpus is literally the first 100k videos
  of the 1M corpus;
- ``BENCH_P1_RSS_CEILING_MB`` — peak-RSS ceiling for the largest
  scaling point (default 1500);
- ``BENCH_P1_CHUNK_ROWS`` — generator chunk size for the scaling runs
  (default 65536);
- ``BENCH_P1_DENSE_LIMIT`` — largest size at which the dense
  cross-check runs (default 150000).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.engine import build_columnar
from repro.pipeline import PipelineConfig, run_pipeline
from repro.reconstruct.tagviews import TagViewsTable
from repro.synth.presets import preset_config
from tests.oracles import scalar_tag_table

REPO_ROOT = Path(__file__).parent.parent
OUTPUT_PATH = REPO_ROOT / "BENCH_p1.json"

PRESET = os.environ.get("BENCH_P1_PRESET", "medium")
_DEFAULT_FLOOR = 10.0 if PRESET in ("medium", "large", "paper") else 5.0
MIN_SPEEDUP = float(os.environ.get("BENCH_P1_MIN_SPEEDUP", _DEFAULT_FLOOR))

SCALING_SIZES = tuple(
    int(size)
    for size in os.environ.get("BENCH_P1_SIZES", "100000,1000000").split(",")
    if size.strip()
)
RSS_CEILING_MB = float(os.environ.get("BENCH_P1_RSS_CEILING_MB", "1500"))
SCALING_CHUNK_ROWS = int(os.environ.get("BENCH_P1_CHUNK_ROWS", "65536"))
#: Largest scaling size at which the dense (V × C)-materializing
#: cross-check is still cheap enough to run in-process.
DENSE_CHECK_LIMIT = int(os.environ.get("BENCH_P1_DENSE_LIMIT", "150000"))
FLOAT32_RTOL = 1e-4

RTOL = 1e-9

#: Timed repetitions; best-of is reported so first-touch page faults,
#: allocator warmup and scheduler noise don't masquerade as compute
#: cost. The fast columnar measurements (~15 ms each) take many more
#: repeats than the slow scalar one (~150 ms): min-of-N only filters a
#: CPU-steal burst if some sample lands in a quiet window, and a burst
#: can easily outlast a handful of 15 ms samples.
REPEATS = 25


@pytest.fixture(scope="module")
def p1_pipeline():
    return run_pipeline(PipelineConfig(universe=preset_config(PRESET)))


def _best_of(fn, repeats: int = REPEATS):
    """(result, best_seconds) over ``repeats`` timed calls."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return result, best


def _merge_output(update: dict) -> None:
    """Read-modify-write ``BENCH_p1.json`` so the speedup gate and the
    scaling gate (separate tests, possibly separate runs) each own their
    keys without clobbering the other's."""
    payload = {}
    if OUTPUT_PATH.exists():
        try:
            payload = json.loads(OUTPUT_PATH.read_text(encoding="utf-8"))
        except (ValueError, OSError):
            payload = {}
    payload.update(update)
    OUTPUT_PATH.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def test_p1_columnar_speedup(p1_pipeline, report_writer, rss_probe, bench_meta):
    dataset = p1_pipeline.dataset
    reconstructor = p1_pipeline.reconstructor
    registry = dataset.registry

    # Warm both paths once (imports, allocator) before timing.
    small_warmup = list(dataset)[:50]
    scalar_tag_table(small_warmup, reconstructor)
    TagViewsTable(small_warmup, reconstructor, engine="columnar")

    scalar_table, scalar_s = _best_of(
        lambda: scalar_tag_table(dataset, reconstructor),
        repeats=4,
    )
    columnar, build_s = _best_of(
        lambda: build_columnar(dataset, registry), repeats=9
    )
    columnar_table, compute_s = _best_of(
        lambda: TagViewsTable.from_columnar(columnar, reconstructor)
    )

    # Correctness gate: the speedup only counts if the answers agree.
    assert scalar_table.tags() == columnar_table.tags()
    a = columnar_table.views_matrix()
    b = scalar_table.views_matrix()
    np.testing.assert_allclose(a, b, rtol=RTOL, atol=RTOL)
    nonzero = np.abs(b) > 0
    max_rel_diff = (
        float(np.max(np.abs(a[nonzero] - b[nonzero]) / np.abs(b[nonzero])))
        if nonzero.any()
        else 0.0
    )

    videos = len(dataset)
    tags = len(columnar_table)
    speedup = scalar_s / compute_s if compute_s > 0 else float("inf")
    cold_s = build_s + compute_s
    payload = {
        "benchmark": "p1_columnar_speedup",
        "preset": PRESET,
        "videos": videos,
        "tags": tags,
        "countries": len(reconstructor.registry),
        "scalar_seconds": round(scalar_s, 6),
        "build_seconds": round(build_s, 6),
        "compute_seconds": round(compute_s, 6),
        "speedup": round(speedup, 2),
        "cold_speedup": round(scalar_s / cold_s, 2) if cold_s > 0 else None,
        "min_speedup": MIN_SPEEDUP,
        "scalar_videos_per_sec": round(videos / scalar_s, 1),
        "columnar_videos_per_sec": round(videos / compute_s, 1),
        "columnar_tags_per_sec": round(tags / compute_s, 1),
        "max_rel_diff": max_rel_diff,
        "peak_rss_mb": round(rss_probe(), 1),
        **bench_meta,
    }
    _merge_output(payload)

    report_writer(
        "p1_columnar_speedup",
        "\n".join(f"{key}: {value}" for key, value in sorted(payload.items())),
    )

    assert max_rel_diff <= RTOL
    assert speedup >= MIN_SPEEDUP, (
        f"columnar compute only {speedup:.1f}x faster than scalar "
        f"(floor {MIN_SPEEDUP}x) on preset {PRESET!r}"
    )


def _stream_point(size: int, tmp_path: Path, rss_probe) -> dict:
    """One scaling-curve point: generate → store → aggregate at ``size``.

    Returns the row dict destined for ``BENCH_p1.json["scaling"]``.
    """
    from repro.engine.outofcore import (
        build_store_streaming,
        tag_views_streaming,
    )
    from repro.engine.store import open_store
    from repro.reconstruct.views import ViewReconstructor
    from repro.synth.stream import StreamingUniverse
    from repro.world.countries import default_registry

    config = preset_config("xxlarge")
    registry = default_registry()
    reconstructor = ViewReconstructor()
    store_dir = tmp_path / f"store_{size}"

    # Generate + append to the raw-array store in one streaming pass;
    # only the (tag, row) incidence pairs are held back for the CSR.
    start = time.perf_counter()
    universe = StreamingUniverse(config, registry=registry)
    mapped = build_store_streaming(
        universe.iter_chunks(chunk_rows=SCALING_CHUNK_ROWS, limit=size),
        universe.tag_names,
        store_dir,
        registry=registry,
    )
    build_s = time.perf_counter() - start

    # Reopen with full streaming checksum verification — the resume
    # path the gate is really about: aggregation runs off disk, with
    # integrity checked without ever loading a whole array.
    start = time.perf_counter()
    mapped = open_store(store_dir, registry=registry, verify=True)
    verify_s = time.perf_counter() - start

    start = time.perf_counter()
    table = tag_views_streaming(mapped, prior=reconstructor.prior)
    compute_s = time.perf_counter() - start

    row = {
        "videos": size,
        "tags": int(mapped.n_tags),
        "chunk_rows": SCALING_CHUNK_ROWS,
        "build_seconds": round(build_s, 3),
        "verify_seconds": round(verify_s, 3),
        "compute_seconds": round(compute_s, 3),
        "videos_per_sec": round(size / (build_s + verify_s + compute_s), 1),
        "compute_videos_per_sec": round(size / compute_s, 1),
        "peak_rss_mb": round(rss_probe(), 1),
    }

    if size <= DENSE_CHECK_LIMIT:
        # Dense cross-check: the streamed Eq. (3) table must be
        # bit-for-bit the dense engine's (float64) and within 1e-4
        # relative in float32.
        dense_table = TagViewsTable.from_columnar(mapped, reconstructor)
        assert np.array_equal(table, dense_table.views_matrix()), (
            f"streamed Eq.(3) diverged from dense at {size} videos"
        )
        f32 = tag_views_streaming(
            mapped, prior=reconstructor.prior, dtype="float32"
        )
        dense = dense_table.views_matrix()
        nonzero = np.abs(dense) > 0
        max_rel = float(
            np.max(np.abs(f32[nonzero] - dense[nonzero]) / dense[nonzero])
        )
        assert max_rel <= FLOAT32_RTOL, (
            f"float32 relative error {max_rel:.2e} above {FLOAT32_RTOL}"
        )
        # Chunk-size invariance of the generator: a different chunking
        # of the same stream is the same corpus.
        alt_universe = StreamingUniverse(config, registry=registry)
        alt = build_store_streaming(
            alt_universe.iter_chunks(
                chunk_rows=max(SCALING_CHUNK_ROWS // 3, 1), limit=size
            ),
            alt_universe.tag_names,
            tmp_path / f"store_alt_{size}",
            registry=registry,
        )
        assert np.array_equal(np.asarray(alt.pop), np.asarray(mapped.pop))
        assert list(alt.video_ids[:5]) == list(mapped.video_ids[:5])
        row["dense_checked"] = True
        row["float32_max_rel_diff"] = max_rel
    else:
        row["dense_checked"] = False

    return row


def test_p1_scaling_curve(tmp_path, report_writer, rss_probe, bench_meta):
    """Out-of-core scaling gate: stream each ``BENCH_P1_SIZES`` point and
    hold the largest one under ``BENCH_P1_RSS_CEILING_MB`` peak RSS."""
    rows = []
    for size in sorted(SCALING_SIZES):
        rows.append(_stream_point(size, tmp_path, rss_probe))

    _merge_output(
        {
            "scaling": rows,
            "scaling_rss_ceiling_mb": RSS_CEILING_MB,
            **bench_meta,
        }
    )
    report_writer(
        "p1_scaling_curve",
        "\n".join(json.dumps(row, sort_keys=True) for row in rows),
    )

    largest = rows[-1]
    assert largest["peak_rss_mb"] <= RSS_CEILING_MB, (
        f"out-of-core path peaked at {largest['peak_rss_mb']} MiB at "
        f"{largest['videos']} videos (ceiling {RSS_CEILING_MB} MiB)"
    )
