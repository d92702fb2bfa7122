#!/usr/bin/env python3
"""From view deltas to trending tags to pre-warmed replicas.

The paper's Eq. (1)–(3) surfaces describe a *snapshot*; this example
runs them live. A temporal universe streams timestamped view-delta
batches — videos arrive mid-stream and gain views along viral /
memoryless / quality-driven trajectories — and three layers consume the
stream end to end:

1. the :class:`~repro.engine.incremental.IncrementalEngine` absorbs
   every batch in O(touched), keeping the views vector, the Eq. (1)–(2)
   estimate rows, and the Eq. (3) tag table exact (bit-identical to a
   cold rebuild, verified at the end);
2. a :class:`~repro.analysis.trending.TrendingDetector` turns each
   batch's touched rows into decayed per-country delta rates — "what is
   moving, where, right now" — for videos, and sums them per tag when
   asked;
3. the detector's per-country demand vector feeds
   :meth:`~repro.serving.planner.AdaptiveTagPlanner.observe_demand`, so
   the next re-warm pushes the videos of *trending* tags toward the
   replicas nearest the countries where views are landing — before the
   requests themselves show up.

Run:  python examples/trending_detect.py
"""

import numpy as np

from repro.engine.incremental import IncrementalEngine, cold_rebuild
from repro.analysis.trending import TrendingDetector
from repro.synth.temporal import make_temporal

PRESET = "small-temporal"
HALF_LIFE_STEPS = 4


def main() -> None:
    stream = make_temporal(PRESET)
    engine = IncrementalEngine()
    detector = TrendingDetector(
        engine, half_life=HALF_LIFE_STEPS * stream.temporal.step_seconds
    )

    print(f"1) Ingesting the {PRESET!r} delta stream...")
    checkpoints = {stream.temporal.n_steps // 2, stream.temporal.n_steps - 1}
    for step, batch in enumerate(stream.iter_batches()):
        detector.update(engine.apply(batch))
        if step in checkpoints:
            top = detector.top_tags(count=3)
            ranked = ", ".join(f"{tag} ({score:,.0f})" for tag, score in top)
            print(
                f"   step {step:3d}: {engine.n_videos:,} videos, "
                f"{engine.n_tags:,} tags — trending: {ranked}"
            )

    print("\n2) Per-region trending (decayed views landing now):")
    for country in ("US", "BR", "JP"):
        top = detector.top_tags(country, count=3)
        ranked = ", ".join(f"{tag} ({score:,.0f})" for tag, score in top)
        print(f"   {country}: {ranked}")

    print("\n3) Feeding the demand vector to the adaptive planner...")
    from repro.datamodel.dataset import Dataset
    from repro.datamodel.video import Video
    from repro.placement.cache import LRUCache
    from repro.placement.predictor import TagGeoPredictor
    from repro.reconstruct.tagviews import TagViewsTable
    from repro.serving.planner import AdaptiveTagPlanner
    from repro.serving.replica import Replica

    # Eq. (3) table straight from the live engine state — no rebuild.
    table = TagViewsTable.from_columnar(engine.to_columnar())
    predictor = TagGeoPredictor(table)
    planner = AdaptiveTagPlanner(predictor)
    demand = detector.demand_vector()
    planner.observe_demand(demand)

    tag_names = engine.tags
    catalogue = Dataset(
        (
            Video(
                video_id=engine.video_ids[row],
                title=f"Streamed video {engine.video_ids[row]}",
                uploader="stream",
                upload_date="2010-06-15",
                views=int(engine.views[row]),
                tags=tuple(tag_names[t] for t in engine.video_tags(row)),
            )
            for row in range(engine.n_videos)
        ),
        registry=stream.registry,
    )
    markets = [engine.codes[i] for i in np.argsort(-demand)[:3]]
    replicas = [
        Replica(f"edge-{code}", code, LRUCache(8)) for code in markets
    ]
    plan = planner.plan(catalogue, replicas, capacity=5)
    for replica in replicas:
        videos = plan[replica.replica_id]
        print(f"   {replica.replica_id}: pre-warm {', '.join(videos)}")

    print("\n4) Exactness check: cold rebuild of the cumulative snapshot...")
    pop, views, indptr, names = stream.snapshot_eligible()
    oracle = cold_rebuild(pop, views, indptr, names)
    identical = engine.tags == oracle.tags and np.array_equal(
        engine.tag_views, oracle.tag_views
    )
    print(f"   tag-views table bit-identical to rebuild: {identical}")
    assert identical


if __name__ == "__main__":
    main()
