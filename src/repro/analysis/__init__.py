"""Analysis toolbox: concentration metrics, tag geography, conjecture study.

The paper's §3 analysis is qualitative ("a manual analysis of views(t)
reveals that some tags are mainly viewed in particular countries […]
while others are more uniformly distributed"). This package makes it
quantitative:

- :mod:`repro.analysis.metrics` — distribution math: normalized Shannon
  entropy, Gini coefficient, Herfindahl–Hirschman index, top-k shares,
  Jensen–Shannon divergence, total-variation distance.
- :mod:`repro.analysis.tagstats` — per-tag geography reports built on the
  Eq. (3) tag view table; classification into *global* / *local* tags.
- :mod:`repro.analysis.zipf` — rank-frequency (Zipf) and power-law tail
  fits for tag usage and view counts.
- :mod:`repro.analysis.conjecture` — the paper's central conjecture,
  tested: does the tag-aggregate geography predict a held-out video's
  view distribution better than global priors?
- :mod:`repro.analysis.trending` — per-region top-moving tags/videos
  from the incremental engine's delta flow (decayed delta rates),
  feeding the adaptive planner's pre-warm hints.
"""

from repro.analysis.metrics import (
    normalized_entropy,
    gini,
    herfindahl,
    top_k_share,
    jensen_shannon,
    total_variation,
    as_distribution,
)
from repro.analysis.tagstats import TagGeography, TagGeographyReport, classify_tags
from repro.analysis.zipf import ZipfFit, fit_zipf, rank_frequency
from repro.analysis.conjecture import (
    ConjectureResult,
    PredictorScore,
    evaluate_conjecture,
)
from repro.analysis.cooccurrence import CooccurrenceGraph, geographic_coherence
from repro.analysis.signatures import CountrySignatures, TagLift
from repro.analysis.popularity import (
    PopularityLocalityResult,
    popularity_vs_locality,
)
from repro.analysis.sampling import (
    SampleBiasReport,
    compare_sample_to_universe,
    tag_coverage_curve,
    views_ccdf,
)
from repro.analysis.regionview import (
    CONTINENT_GROUPS,
    continent_shares,
    dataset_continent_shares,
    dataset_region_shares,
    region_shares,
)
from repro.analysis.trending import TrendingDetector, TrendingEntry

__all__ = [
    "normalized_entropy",
    "gini",
    "herfindahl",
    "top_k_share",
    "jensen_shannon",
    "total_variation",
    "as_distribution",
    "TagGeography",
    "TagGeographyReport",
    "classify_tags",
    "ZipfFit",
    "fit_zipf",
    "rank_frequency",
    "ConjectureResult",
    "PredictorScore",
    "evaluate_conjecture",
    "CooccurrenceGraph",
    "geographic_coherence",
    "CountrySignatures",
    "TagLift",
    "PopularityLocalityResult",
    "popularity_vs_locality",
    "SampleBiasReport",
    "compare_sample_to_universe",
    "tag_coverage_curve",
    "views_ccdf",
    "CONTINENT_GROUPS",
    "continent_shares",
    "dataset_continent_shares",
    "dataset_region_shares",
    "region_shares",
    "TrendingDetector",
    "TrendingEntry",
]
