"""Deterministic seeded exponential backoff with jitter.

The executor's failed-job retries wait on this schedule.  The delay
for attempt *n* is::

    min(cap, base * 2**(n-1)) * jitter,   jitter in [0.5, 1.0)

with the jitter derived from SHA-256 of ``(key, seed, attempt)`` rather
than a live RNG: the same job retried at the same attempt always waits
the same time, so campaign wall-clock behavior replays exactly and tests
can assert the schedule to the microsecond.  Jitter still decorrelates
*different* jobs (their keys differ), which is all jitter is for.
"""

from __future__ import annotations

import hashlib


def backoff_delay(
    attempt: int,
    *,
    base: float = 0.1,
    cap: float = 2.0,
    seed: int = 0,
    key: str = "",
) -> float:
    """Seconds to wait before retry number ``attempt`` (1-based).

    ``base`` is the first-attempt delay, ``cap`` bounds the exponential
    growth, and ``(key, seed)`` select the deterministic jitter stream.
    ``attempt < 1`` is clamped to 1; ``base <= 0`` yields 0 (no wait).
    """
    if base <= 0:
        return 0.0
    attempt = max(1, attempt)
    raw = min(cap, base * (2.0 ** (attempt - 1)))
    digest = hashlib.sha256(f"{key}:{seed}:{attempt}".encode()).digest()
    fraction = int.from_bytes(digest[:8], "big") / 2.0**64
    return raw * (0.5 + 0.5 * fraction)
