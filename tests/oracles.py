"""Per-video reference oracles for the Eq. (1)–(3) engine.

These are the loops the library ran before the columnar engine: one
:meth:`~repro.reconstruct.views.ViewReconstructor.for_video` call per
video, and Eq. (3) accumulated tag by tag in a Python dict. Production
code no longer runs them; the equivalence suite and benchmark P1 hold
the engine to them (P1 imports this module, so run it with
``python -m pytest`` from the repository root).
"""

from typing import Dict, Iterable, List

import numpy as np

from repro.datamodel.video import Video
from repro.reconstruct.tagviews import TagViewsTable
from repro.reconstruct.views import ViewReconstructor


def scalar_for_dataset(
    reconstructor: ViewReconstructor, dataset: Iterable[Video]
) -> Dict[str, np.ndarray]:
    """``{video_id: vector}`` for every eligible video, one at a time."""
    result: Dict[str, np.ndarray] = {}
    for video in dataset:
        if video.has_valid_popularity():
            result[video.video_id] = reconstructor.for_video(video)
    return result


def scalar_tag_table(
    dataset: Iterable[Video], reconstructor: ViewReconstructor
) -> TagViewsTable:
    """The Eq. (3) table, accumulated video by video."""
    table = TagViewsTable.__new__(TagViewsTable)
    table.reconstructor = reconstructor
    table.registry = reconstructor.registry
    axis = len(table.registry)
    index: Dict[str, int] = {}
    rows: List[np.ndarray] = []
    counts: List[int] = []
    for video in dataset:
        if not video.has_valid_popularity() or not video.tags:
            continue
        estimated = reconstructor.for_video(video)
        # dict.fromkeys dedupes while keeping uploader order: a
        # duplicated tag must not receive the video's views twice.
        for tag in dict.fromkeys(video.tags):
            slot = index.get(tag)
            if slot is None:
                slot = len(rows)
                index[tag] = slot
                rows.append(np.zeros(axis))
                counts.append(0)
            rows[slot] += estimated
            counts[slot] += 1
    matrix = np.vstack(rows) if rows else np.zeros((0, axis))
    table._finish(list(index.keys()), matrix, counts)
    return table
