"""Breadth-first snowball crawler.

The paper's dataset "was […] completed using a breadth-first snowball
sampling of the graph of related videos, as reported by Youtube", seeded
with "the 10 most popular videos in 25 different countries". This package
implements that crawl against the simulated API:

- :class:`~repro.crawler.frontier.BFSFrontier` — FIFO frontier with
  duplicate suppression and depth tracking;
- :class:`~repro.crawler.step.CrawlStep` — the per-video step: fetch
  video metadata, decode the popularity chart URL, page through related
  videos; every request waits on the politeness
  :class:`~repro.crawler.politeness.TokenBucket` and retries transient
  failures with exponential backoff, all paid through one
  :class:`~repro.clock.Clock`; it survives 404s and lets quota
  exhaustion through;
- :class:`~repro.crawler.snowball.SnowballCrawler` — the in-process
  crawl loop: seed from per-country most-popular feeds, step each
  frontier entry, expand, and stop cleanly on quota exhaustion; its
  clock is simulated, so waits are accounted, never slept;
- :class:`~repro.crawler.distributed.DistributedCrawlSupervisor` — the
  same step in supervised worker processes, under leases, in real time;
- :class:`~repro.crawler.checkpoint.CrawlCheckpoint` — suspend/resume
  support, so a long crawl interrupted mid-flight continues identically;
- :class:`~repro.crawler.stats.CrawlStats` — the run's accounting.

The in-process crawler can additionally journal its progress through a
:class:`~repro.durability.journal.CheckpointJournal` (pass ``journal``
and ``checkpoint_every``), making crawl state durable across process
crashes; ``resume_from_journal`` rebuilds a crawler from whatever state
survived (the distributed workers and supervisor always journal). See
:mod:`repro.durability`.

Every crawl retries through a :class:`~repro.resilience.RetryPolicy`
(also re-exported here), and surfaces a resilient client's reconnect /
circuit-breaker / deadline counters in :class:`CrawlStats` at the end
of a run.
"""

from repro.crawler.frontier import BFSFrontier
from repro.crawler.stats import CrawlStats
from repro.crawler.checkpoint import CrawlCheckpoint
from repro.crawler.snowball import CrawlResult, SnowballCrawler
from repro.crawler.politeness import TokenBucket
from repro.crawler.leases import Lease, LeaseError, LeaseManager
from repro.crawler.distributed import (
    DistributedCrawlSupervisor,
    WorkerConfig,
    merge_worker_checkpoints,
)
from repro.resilience import CircuitBreaker, RetryPolicy

__all__ = [
    "BFSFrontier",
    "CircuitBreaker",
    "CrawlStats",
    "CrawlCheckpoint",
    "CrawlResult",
    "DistributedCrawlSupervisor",
    "Lease",
    "LeaseError",
    "LeaseManager",
    "RetryPolicy",
    "SnowballCrawler",
    "TokenBucket",
    "WorkerConfig",
    "merge_worker_checkpoints",
]
