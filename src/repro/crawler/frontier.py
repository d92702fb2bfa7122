"""The BFS crawl frontier.

A FIFO queue of ``(video_id, depth)`` pairs with duplicate suppression:
an id is admitted at most once over the frontier's lifetime, whether it
is currently queued, already popped, or was dropped. This is the
invariant that makes snowball sampling terminate and the crawl's
"visited" accounting exact.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Iterable, List, Optional, Set, Tuple


class BFSFrontier:
    """FIFO frontier with lifetime dedup and depth tracking."""

    def __init__(self) -> None:
        self._queue: Deque[Tuple[str, int]] = deque()
        self._admitted: Set[str] = set()

    def push(self, video_id: str, depth: int) -> bool:
        """Enqueue ``video_id`` at ``depth``; False if already admitted."""
        if video_id in self._admitted:
            return False
        self._admitted.add(video_id)
        self._queue.append((video_id, depth))
        return True

    def push_all(self, video_ids: Iterable[str], depth: int) -> int:
        """Enqueue many ids; returns how many were newly admitted."""
        return len(self.admit_all(video_ids, depth))

    def admit_all(self, video_ids: Iterable[str], depth: int) -> List[str]:
        """Enqueue many ids; returns the newly admitted ones, in order.

        The journaling crawler uses the returned list as the batch's
        frontier-admit delta.
        """
        return [vid for vid in video_ids if self.push(vid, depth)]

    def pop(self) -> Tuple[str, int]:
        """Dequeue the oldest entry; raises :class:`IndexError` when empty."""
        return self._queue.popleft()

    def requeue(self, video_id: str, depth: int) -> None:
        """Put a popped but unfinished entry back at the front."""
        self._queue.appendleft((video_id, depth))

    def __len__(self) -> int:
        """Number of entries currently queued."""
        return len(self._queue)

    def __bool__(self) -> bool:
        return bool(self._queue)

    def __contains__(self, video_id: str) -> bool:
        """True if ``video_id`` was ever admitted (queued or popped)."""
        return video_id in self._admitted

    @property
    def admitted_count(self) -> int:
        """Ids ever admitted (queued now or popped earlier)."""
        return len(self._admitted)

    # -- checkpoint support -------------------------------------------------

    def pending(self) -> List[Tuple[str, int]]:
        """The queued entries, oldest first (copy)."""
        return list(self._queue)

    def admitted(self) -> Set[str]:
        """All ids ever admitted (copy)."""
        return set(self._admitted)

    @classmethod
    def restore(
        cls, pending: Iterable[Tuple[str, int]], admitted: Iterable[str]
    ) -> "BFSFrontier":
        """Rebuild a frontier from checkpoint state.

        ``pending`` entries must all be contained in ``admitted``; entries
        are re-queued in the given order.
        """
        frontier = cls()
        frontier._admitted = set(admitted)
        for video_id, depth in pending:
            if video_id not in frontier._admitted:
                raise ValueError(
                    f"pending id {video_id!r} missing from admitted set"
                )
            frontier._queue.append((video_id, int(depth)))
        return frontier
