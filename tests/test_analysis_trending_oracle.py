"""Trending detector against a brute-force impulse oracle.

The oracle keeps every impulse a stream produced — (time, row,
per-country views) — and sums ``w · 2^(−Δt / half_life)`` at read time:
per video, per tag over its member videos, and per country. It keeps no
decayed state and no per-tag state, and it derives rows, net views per
batch and tag membership from the batches themselves, so it checks the
detector's lazy decay and its tag sums against the definition.

Every impulse is non-negative, so the detector's sums and the oracle's
agree to rounding; the suite allows 1e-12 relative. Rankings must list
the oracle's ids in the oracle's order; two entries may swap only where
their oracle scores agree within that tolerance.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis.trending import TrendingDetector
from repro.engine.incremental import DeltaBatch, IncrementalEngine
from repro.world.countries import default_registry

RTOL = 1e-12

_CODES = default_registry().codes()
_N_C = len(_CODES)
_POP_CODES = _CODES[:6]
#: Countries read: those popularity maps use, plus one they never do.
_READ_CODES = (None,) + tuple(_POP_CODES) + (_CODES[-1],)
_TAG_POOL = ("music", "live", "cats", "how to", "vlog", "asmr", "news")


def _vid(i):
    return f"vid{i:08d}"


def _pop_row(intensities):
    row = np.zeros(_N_C, dtype=np.float64)
    for code, value in intensities.items():
        row[_CODES.index(code)] = value
    return row


class ImpulseOracle:
    """Every impulse of a stream, decayed and summed when read."""

    def __init__(self, engine, half_life):
        self.engine = engine
        self.half_life = half_life
        self.ids = []  # eligible video ids, in row order
        self.row_of = {}
        self.row_tags = []  # distinct tags per row, uploader order
        self.tag_names = []  # vocabulary, first-seen order
        self.impulses = []  # (timestamp, row, per-country views)
        self.now = None

    def observe(self, batch):
        """Record one batch; call right after ``engine.apply(batch)``."""
        self.now = batch.timestamp
        added = {}
        for i, vid in enumerate(map(str, batch.new_video_ids)):
            if batch.new_has_map is not None and not batch.new_has_map[i]:
                continue  # the funnel drops it; its deltas are ignored
            row = self.row_of[vid] = len(self.ids)
            self.ids.append(vid)
            lo, hi = batch.new_tag_indptr[i], batch.new_tag_indptr[i + 1]
            tags = list(dict.fromkeys(map(str, batch.new_tags[lo:hi])))
            self.row_tags.append(tags)
            self.tag_names.extend(t for t in tags if t not in self.tag_names)
            added[row] = int(batch.new_views[i])
        for vid, delta in zip(map(str, batch.video_ids), batch.view_deltas):
            if vid in self.row_of:
                row = self.row_of[vid]
                added[row] = added.get(row, 0) + int(delta)
        for row, views in sorted(added.items()):
            if views <= 0:
                continue  # a net correction deposits nothing
            est = np.array(self.engine.est[row])
            total = math.fsum(est)
            shares = est / total if total > 0 else np.full(_N_C, 1.0 / _N_C)
            self.impulses.append((batch.timestamp, row, views * shares))

    def video_scores(self, country=None):
        terms = [[] for _ in self.ids]
        for timestamp, row, impulse in self.impulses:
            decay = 2.0 ** (-(self.now - timestamp) / self.half_life)
            if country is None:
                terms[row].extend(impulse * decay)
            else:
                terms[row].append(impulse[_CODES.index(country)] * decay)
        return np.array([math.fsum(t) for t in terms], dtype=np.float64)

    def tag_scores(self, country=None):
        videos = self.video_scores(country)
        return np.array(
            [
                math.fsum(
                    videos[row]
                    for row, tags in enumerate(self.row_tags)
                    if name in tags
                )
                for name in self.tag_names
            ],
            dtype=np.float64,
        )

    def demand_vector(self):
        return np.array(
            [math.fsum(self.video_scores(code)) for code in _CODES],
            dtype=np.float64,
        )


def _assert_close(actual, expected):
    np.testing.assert_allclose(actual, expected, rtol=RTOL, atol=0.0)


def _assert_ranking(got, names, scores, count):
    """``got`` lists the oracle's top ``count`` in the oracle's order."""
    order = sorted(
        (i for i in range(len(names)) if scores[i] > 0.0),
        key=lambda i: (-scores[i], i),
    )[:count]
    assert len(got) == len(order)
    assert len({name for name, _ in got}) == len(got)
    index = {name: i for i, name in enumerate(names)}
    for (name, score), rank in zip(got, order):
        oracle_score = scores[index[name]]
        assert oracle_score == pytest.approx(scores[rank], rel=RTOL, abs=0.0)
        assert score == pytest.approx(oracle_score, rel=RTOL, abs=0.0)


def _assert_agrees(detector, oracle):
    engine = detector.engine
    assert engine.video_ids == tuple(oracle.ids)
    assert engine.tags == tuple(oracle.tag_names)
    for country in _READ_CODES:
        videos = oracle.video_scores(country)
        tags = oracle.tag_scores(country)
        _assert_close(detector.video_scores(country), videos)
        _assert_close(detector.tag_scores(country), tags)
        for count in (1, 3, len(oracle.tag_names) + 1):
            _assert_ranking(
                detector.top_videos(country, count), oracle.ids, videos, count
            )
            _assert_ranking(
                detector.top_tags(country, count),
                oracle.tag_names,
                tags,
                count,
            )
    _assert_close(detector.demand_vector(), oracle.demand_vector())


@st.composite
def trending_streams(draw):
    """(batches, read-after flags, half-life) for one random stream.

    Covers arrivals, never-seen tags, funnel-dropped videos, view
    corrections (negative deltas), repeated timestamps and reads
    mid-stream.
    """
    half_life = draw(st.sampled_from((0.5, 1.0, 2.5, 10.0)))
    timestamp = draw(st.sampled_from((0.0, 1000.0)))
    views = {}  # cumulative views per eligible video id
    skipped = []
    batches, reads = [], []
    counter = 0
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        timestamp += draw(st.sampled_from((0.0, 0.0, 0.5, 1.0, 3.0)))
        arrivals = []
        for _ in range(draw(st.integers(min_value=0, max_value=3))):
            has_map = draw(st.booleans())
            intensities = draw(
                st.dictionaries(
                    st.sampled_from(_POP_CODES),
                    st.integers(min_value=1, max_value=61),
                    min_size=1 if has_map else 0,
                    max_size=4,
                )
            )
            tags = draw(st.lists(st.sampled_from(_TAG_POOL), max_size=4))
            initial = draw(st.sampled_from((0, 1, 13, 40_000)))
            vid = _vid(counter)
            counter += 1
            arrivals.append(
                (vid, initial, _pop_row(intensities), has_map, tags)
            )
            if has_map:
                views[vid] = initial
            else:
                skipped.append(vid)
        deltas = []
        known = sorted(views) + skipped
        n_deltas = draw(st.integers(min_value=0, max_value=5)) if known else 0
        for _ in range(n_deltas):
            vid = draw(st.sampled_from(known))
            low = -views[vid] if vid in views else 0
            delta = draw(st.integers(min_value=low, max_value=10_000))
            if vid in views:
                views[vid] += delta
            deltas.append((vid, delta))
        tags = [tag for entry in arrivals for tag in entry[4]]
        batches.append(
            DeltaBatch(
                timestamp=timestamp,
                video_ids=np.array([vid for vid, _ in deltas], dtype=str),
                view_deltas=np.array([d for _, d in deltas], dtype=np.int64),
                new_video_ids=np.array([a[0] for a in arrivals], dtype=str),
                new_views=np.array([a[1] for a in arrivals], dtype=np.int64),
                new_pop=np.stack([a[2] for a in arrivals])
                if arrivals
                else np.empty((0, _N_C)),
                new_has_map=np.array([a[3] for a in arrivals], dtype=bool),
                new_tag_indptr=np.cumsum(
                    [0] + [len(a[4]) for a in arrivals]
                ).astype(np.int64),
                new_tags=np.array(tags, dtype=str),
            )
        )
        reads.append(draw(st.booleans()))
    return batches, reads, half_life


@given(trending_streams())
def test_detector_matches_impulse_oracle(stream):
    """Video, tag and demand scores, and both rankings, at every read."""
    batches, reads, half_life = stream
    engine = IncrementalEngine()
    detector = TrendingDetector(engine, half_life=half_life)
    oracle = ImpulseOracle(engine, half_life)
    for batch, read in zip(batches, reads):
        detector.update(engine.apply(batch))
        oracle.observe(batch)
        if read:
            _assert_agrees(detector, oracle)
    _assert_agrees(detector, oracle)


def test_net_corrections_deposit_nothing():
    """A net-negative batch leaves scores to decay; a net-zero one too."""
    engine = IncrementalEngine()
    detector = TrendingDetector(engine, half_life=1.0)
    oracle = ImpulseOracle(engine, 1.0)
    stream = [
        DeltaBatch(
            timestamp=0.0,
            new_video_ids=np.array([_vid(0), _vid(1)]),
            new_views=np.array([500, 20], dtype=np.int64),
            new_pop=np.stack([_pop_row({"US": 9}), _pop_row({"JP": 4})]),
            new_tag_indptr=np.array([0, 2, 3], dtype=np.int64),
            new_tags=np.array(["music", "live", "music"]),
        ),
        DeltaBatch(
            timestamp=1.0,
            video_ids=np.array([_vid(0), _vid(1), _vid(1)]),
            view_deltas=np.array([-100, 7, -7], dtype=np.int64),
        ),
    ]
    for batch in stream:
        detector.update(engine.apply(batch))
        oracle.observe(batch)
    assert len(oracle.impulses) == 2  # only the arrivals deposited
    _assert_agrees(detector, oracle)
    music = engine.tag_id("music")
    assert detector.tag_scores()[music] == pytest.approx(260.0, rel=RTOL)


@given(
    scores=st.lists(
        st.one_of(
            st.sampled_from((0.0, 0.0, 1.0, 2.5, 7.0, 5e-324)),
            st.floats(min_value=0.0, max_value=1e6),
        ),
        max_size=40,
    ),
    count=st.one_of(
        st.sampled_from((0, 1, 41)), st.integers(min_value=0, max_value=45)
    ),
)
def test_rank_matches_full_stable_sort(scores, count):
    """Partial selection ranks exactly as a full stable argsort: ties go
    to the lower row, zeros never rank."""
    scores = np.array(scores, dtype=np.float64)
    order = np.argsort(-scores, kind="stable")[:count]
    expected = order[scores[order] > 0.0]
    got = TrendingDetector._rank(scores, count)
    assert got.tolist() == expected.tolist()
