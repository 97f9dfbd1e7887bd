"""The one clock: every timing read and wait in the package goes through here.

Callers write ``clock.now()`` and ``clock.sleep(seconds)`` and look the name
up on this module at call time, so a test that replaces the two names
(``monkeypatch.setattr(repro.clock, "now", ...)``) scripts time for the
governor's buckets and backoff, the session's call timings, the span ring and
the store's write-behind at once.  Importing a name from here would bind the
real clock and escape that, so nothing does.
"""

from time import perf_counter as now, sleep  # noqa: F401
