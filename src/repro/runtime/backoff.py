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

#: Seconds before the first retry; each later retry doubles it.
BACKOFF_BASE_S = 0.1
#: Ceiling on the doubled delay, in seconds.
BACKOFF_CAP_S = 2.0
#: Selects the jitter stream.
BACKOFF_SEED = 0


def backoff_delay(attempt: int, key: str = "") -> float:
    """Seconds to wait before retry number ``attempt`` (1-based).

    The module constants set the schedule: ``BACKOFF_BASE_S`` is the
    first-attempt delay, ``BACKOFF_CAP_S`` bounds the exponential growth,
    and ``(key, BACKOFF_SEED)`` select the deterministic jitter stream.
    ``attempt < 1`` is clamped to 1; a base ``<= 0`` yields 0 (no wait).
    """
    if BACKOFF_BASE_S <= 0:
        return 0.0
    attempt = max(1, attempt)
    raw = min(BACKOFF_CAP_S, BACKOFF_BASE_S * (2.0 ** (attempt - 1)))
    digest = hashlib.sha256(
        f"{key}:{BACKOFF_SEED}:{attempt}".encode()
    ).digest()
    fraction = int.from_bytes(digest[:8], "big") / 2.0**64
    return raw * (0.5 + 0.5 * fraction)
