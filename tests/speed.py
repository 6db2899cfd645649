"""Best-of-N host timing for the tier-1 speed bars.

The bars compare two backends on the same trace.  Each side is timed
``REPS`` times on fresh state and its best time is kept, so one noisy
repetition cannot fail a bar.  Every repetition must also produce the
same witness, since only the clock may vary between them.
"""

import time

REPS = 3


def timed(fn, *args):
    """``(seconds, result)`` of ``fn(*args)``."""
    t0 = time.perf_counter()
    result = fn(*args)
    return time.perf_counter() - t0, result


def best_of(rep, reps=REPS):
    """Call ``rep() -> (seconds, witness)`` ``reps`` times.

    Returns ``(best seconds, witness)``; fails if two repetitions give
    different witnesses.
    """
    runs = [rep() for _ in range(reps)]
    witnesses = {witness for _, witness in runs}
    assert len(witnesses) == 1, "repetitions diverged"
    return min(seconds for seconds, _ in runs), runs[0][1]
