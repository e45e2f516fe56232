"""An opt-in stdlib sampling profiler.

:class:`SamplingProfiler` attributes time over *code paths*, with no
dependency: a background thread wakes on a fixed interval, walks every live
thread's stack via ``sys._current_frames()``, and counts collapsed stacks
(``root;caller;...;leaf``, flamegraph-style).  :meth:`attribution` folds the
counts into the hottest stacks and leaf functions, so a regressed benchmark
cell carries its own profile instead of requiring a re-run under cProfile.

Sampling beats tracing here because it is *safe to leave on*: the sampler
never patches the interpreter, costs one stack walk per interval regardless
of request rate (overhead target: instrumented throughput >= 0.95x
uninstrumented, recorded by ``benchmarks/matrix.py``), and reads frames that
the sampled threads keep mutating -- a racy read can at worst misattribute
one sample.

Locking contract (repro-verify REP009 applies to this module): the sampler's
lock is a **leaf**.  The sampling thread builds each collapsed stack *before*
taking the lock, holds it only to bump plain dict counters, and does all of
its waiting (``Event.wait``) and thread joining outside any lock.  Snapshots
(:meth:`attribution`) copy the counts under the lock and format afterwards.
"""

from __future__ import annotations

import sys
import threading
import time
from types import FrameType
from typing import Any

__all__ = ["SamplingProfiler", "DEFAULT_SAMPLE_INTERVAL_S"]

#: Default sampling interval: 5 ms = 200 stacks/second, cheap enough to ride
#: along on every profiled benchmark cell or server.
DEFAULT_SAMPLE_INTERVAL_S = 0.005

#: Stack frames deeper than this are truncated at the root end; hot leaves
#: are what attribution cares about.
_MAX_STACK_DEPTH = 48


def _collapse(frame: FrameType | None) -> str:
    """One thread's stack as a ``root;...;leaf`` collapsed string.

    Each element is ``filename:function`` with the path shortened to its
    final component -- enough to identify the code without host-specific
    absolute paths in the output.
    """
    parts: list[str] = []
    while frame is not None and len(parts) < _MAX_STACK_DEPTH:
        code = frame.f_code
        filename = code.co_filename.rsplit("/", 1)[-1]
        parts.append(f"{filename}:{code.co_name}")
        frame = frame.f_back
    parts.reverse()
    return ";".join(parts)


class SamplingProfiler:
    """A background ``sys._current_frames()`` sampler with collapsed output.

    Start/stop (or use as a context manager) around the region to profile;
    :meth:`attribution` returns the hottest collapsed stacks and leaf
    functions with sample counts and percentages.  The profiler's own
    sampling thread is excluded from its samples, and threads may optionally
    be restricted to an explicit id set (``thread_ids``).
    """

    def __init__(
        self,
        interval_s: float = DEFAULT_SAMPLE_INTERVAL_S,
        *,
        thread_ids: frozenset[int] | None = None,
    ) -> None:
        if not interval_s > 0:
            raise ValueError(f"interval_s must be positive, got {interval_s}")
        self.interval_s = float(interval_s)
        self._thread_ids = thread_ids
        self._lock = threading.Lock()
        self._counts: dict[str, int] = {}
        self._samples = 0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._started_at: float | None = None
        self._elapsed = 0.0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> SamplingProfiler:
        """Start the sampling thread (idempotent while running)."""
        if self._thread is not None:
            return self
        self._stop.clear()
        self._started_at = time.perf_counter()
        self._thread = threading.Thread(
            target=self._run, name="repro-sampling-profiler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop sampling and join the thread (idempotent)."""
        thread = self._thread
        if thread is None:
            return
        self._stop.set()
        thread.join()
        self._thread = None
        if self._started_at is not None:
            self._elapsed += time.perf_counter() - self._started_at
            self._started_at = None

    @property
    def running(self) -> bool:
        return self._thread is not None

    def __enter__(self) -> SamplingProfiler:
        return self.start()

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # sampling loop
    # ------------------------------------------------------------------
    def _run(self) -> None:
        own_id = threading.get_ident()
        # Event.wait doubles as the interval sleep and the stop signal, and
        # runs outside every lock.
        while not self._stop.wait(self.interval_s):
            # A private-but-stable CPython API: a dict of thread id -> frame
            # for every live thread, snapshotted without stopping them.
            frames = sys._current_frames()
            collapsed: list[str] = []
            for thread_id, frame in frames.items():
                if thread_id == own_id:
                    continue
                if self._thread_ids is not None and thread_id not in self._thread_ids:
                    continue
                collapsed.append(_collapse(frame))
            # Counter updates only under the leaf lock; stack formatting is
            # already done.
            with self._lock:
                self._samples += len(collapsed)
                for stack in collapsed:
                    self._counts[stack] = self._counts.get(stack, 0) + 1

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def sample_count(self) -> int:
        with self._lock:
            return self._samples

    def attribution(self, top: int = 12) -> dict[str, Any]:
        """Fold the samples into the hottest stacks and leaf functions.

        Returns a JSON-ready dict: total samples, effective sampling rate,
        the ``top`` collapsed stacks and the ``top`` leaf functions, each
        with sample counts and percentages.  Safe to call while sampling.
        """
        with self._lock:
            counts = dict(self._counts)
            samples = self._samples
        if self._started_at is not None:
            elapsed = self._elapsed + (time.perf_counter() - self._started_at)
        else:
            elapsed = self._elapsed
        leaves: dict[str, int] = {}
        for stack, count in counts.items():
            leaf = stack.rsplit(";", 1)[-1] if stack else "<unknown>"
            leaves[leaf] = leaves.get(leaf, 0) + count

        def fold(table: dict[str, int], key_name: str) -> list[dict[str, Any]]:
            ranked = sorted(table.items(), key=lambda item: (-item[1], item[0]))
            return [
                {
                    key_name: name,
                    "samples": count,
                    "percent": round(100.0 * count / samples, 1) if samples else 0.0,
                }
                for name, count in ranked[:top]
            ]

        return {
            "samples": samples,
            "interval_s": self.interval_s,
            "elapsed_s": round(elapsed, 3),
            "distinct_stacks": len(counts),
            "hot_stacks": fold(counts, "stack"),
            "hot_functions": fold(leaves, "function"),
        }
