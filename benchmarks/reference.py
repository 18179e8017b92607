"""The reference task: a small fixed piece of pure-Python work that tells how
fast the machine runs Python at the moment.

The benchmark runs on shared hosts whose speed drifts by 10 to 30% within
seconds to minutes, and trsys, which is pure Python over numpy, slows with
it.  While an untraced pass runs its timed work, `Sampler` interrupts it ten
times a second (SIGALRM) and times the task once; the time spent in the
task is taken off the pass's time.  run.py scales each pass's time by
REFERENCE_S over the mean time of the task in that pass, so the end-to-end
times are in seconds at one fixed machine speed: the speed at which the task
takes REFERENCE_S.  A pass that is slowed by the machine slows its samples
alike, and the scaled time stays; a pass slowed by a change to trsys does
not.

Set-up (starting the interpreter and importing) speeds up and slows down
with the machine less than Python code does, so it is scaled by a start-up
reference instead: run.py follows each set-up-only process by a fresh
interpreter that runs STARTUP_CODE, which imports numpy and prints the CPU
time used, and scales the set-up time by STARTUP_S over that time.

The task counts the placements of eight non-attacking queens by bitmask
backtracking, with a dict and a deque on the way, which is the kind of work
the trsys search engines do.  It uses no part of trsys, so no change to trsys
changes its time.
"""
import collections
import gc
import signal
import time

# median time of the task on the machine where the benchmark was written
# (a shared 2-CPU Linux host, Python 3.11.7)
REFERENCE_S = 0.002

# CPU time of STARTUP_CODE on that machine
STARTUP_S = 0.13
STARTUP_CODE = "import time, numpy; print(time.thread_time())"

QUEENS = 8
PLACEMENTS = 92  # of QUEENS queens
INTERVAL_S = 0.1  # between two samples while a pass runs


def task(n=QUEENS):
    """Number of ways to place n non-attacking queens on an n x n board."""
    full = (1 << n) - 1
    seen = {}
    recent = collections.deque()
    count = 0

    def place(row, cols, diag, anti):
        nonlocal count
        if row == n:
            count += 1
            return
        free = full & ~(cols | diag | anti)
        while free:
            low = free & -free
            free ^= low
            key = (row, low.bit_length())
            seen[key] = seen.get(key, 0) + 1
            recent.append(key)
            if len(recent) > 64:
                recent.popleft()
            place(row + 1, cols | low, (diag | low) << 1 & full, (anti | low) >> 1)

    place(0, 0, 0, 0)
    return count


def sample():
    """Seconds the task takes now.  The garbage collector is held off while
    it runs, so that a collection of the pass's heap is not timed as the
    task's."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        count = task()
        elapsed = time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
    if count != PLACEMENTS:
        raise AssertionError(f"reference task counted {count} placements, not {PLACEMENTS}")
    return elapsed


class Sampler:
    """Times the task every INTERVAL_S seconds of the `with` block.

    `samples` holds the task's times, and `inside_s` the whole time spent in
    the signal handler, which the caller takes off the block's time."""

    def __init__(self):
        self.samples = []
        self.inside_s = 0.0
        self._busy = False

    def _handler(self, signum, frame):
        if self._busy:  # a signal that arrives during a sample is dropped
            return
        self._busy = True
        start = time.perf_counter()
        try:
            self.samples.append(sample())
        finally:
            self.inside_s += time.perf_counter() - start
            self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False
