"""Shard supervisor: spawn, watch and tear down shard worker processes.

``serve-cluster --shards N`` (and the benchmarks) run every shard through
this as its own OS process -- each with its own
:class:`~repro.service.store.HistogramStore`, metrics registry, WAL directory
and binary-transport port -- so CPU-bound ingest scales with cores instead of
serialising on one interpreter's GIL.

Lifecycle
---------

* :meth:`ShardSupervisor.start` launches ``python -m repro.cluster.worker``
  once per shard, all at once, waits for each worker's readiness line (which
  carries the ephemeral port it bound and its store's incarnation token),
  verifies liveness with a transport ``ping`` (a one-leg scatter, like
  every other request) and returns one
  :class:`~repro.cluster.transport.ProcessShard` per worker, its
  ``incarnation`` set from that line.
* A monitor thread polls the fleet.  A worker that dies unexpectedly is
  respawned **on the same port** (so the coordinator's persistent clients
  reconnect transparently), at most :data:`MAX_RESTARTS` times per shard, and
  its ``ProcessShard`` takes the new worker's incarnation: that change is
  what retires every view the coordinator holds of the dead worker.  A
  restarted worker recovers whatever its WAL holds -- without a WAL it comes
  back empty -- and in a replicated cluster the operator (or a test) then
  heals it with ``resync``; the supervisor never invents data.
* :meth:`close` is idempotent: it stops the monitor, closes every transport
  client, SIGTERMs every worker, and escalates to SIGKILL after
  :data:`SHUTDOWN_TIMEOUT_S`.

The supervisor never retries an op on a worker's behalf; all request-level
retry discipline lives in the transport's one round trip (REP011).
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from ..exceptions import ClusterError, ConfigurationError, ShardUnavailableError
from .transport import READY_PREFIX, BinaryShardClient, ProcessShard

__all__ = ["ShardSupervisor"]

#: Seconds to wait for one worker's readiness line.
STARTUP_TIMEOUT_S = 30.0

#: Seconds :meth:`ShardSupervisor.close` waits for the monitor thread, and for
#: the workers to exit after SIGTERM before it sends SIGKILL.
SHUTDOWN_TIMEOUT_S = 5.0

#: Respawns per shard, at most, of a worker that exits unexpectedly;
#: afterwards the shard stays down (reads fail over, ``resync`` heals it
#: once it is brought back).  0 never respawns.
MAX_RESTARTS = 3

#: Seconds between the monitor's liveness polls of the fleet.
POLL_INTERVAL_S = 0.2


@dataclass
class _ShardHandle:
    shard_id: str
    process: subprocess.Popen
    port: int
    wal_dir: Path | None
    incarnation: str
    restarts: int = 0
    events: list[str] = field(default_factory=list)


def _parse_ready_line(line: str) -> dict[str, str]:
    return dict(part.split("=", 1) for part in line.split()[1:] if "=" in part)


class ShardSupervisor:
    """Run ``n_shards`` shard worker processes and keep them alive.

    Parameters
    ----------
    n_shards:
        Number of worker processes to spawn.
    wal_root:
        Optional base directory; shard ``i`` logs under ``wal_root/shard-i``.
        A restarted worker recovers from its own WAL directory.
    profile:
        Run each worker's sampling profiler; its ``profile`` op reports it.
    """

    def __init__(
        self,
        n_shards: int,
        *,
        host: str = "127.0.0.1",
        wal_root: str | Path | None = None,
        wal_fsync: bool = False,
        profile: bool = False,
    ) -> None:
        if n_shards < 1:
            raise ConfigurationError(f"n_shards must be >= 1, got {n_shards}")
        self._n_shards = int(n_shards)
        self._host = host
        self._wal_root = Path(wal_root) if wal_root is not None else None
        self._wal_fsync = bool(wal_fsync)
        self._profile = bool(profile)
        self._handles: dict[str, _ShardHandle] = {}
        self._shards: dict[str, ProcessShard] = {}
        self._lock = threading.Lock()
        self._closing = threading.Event()
        self._monitor: threading.Thread | None = None
        self._started = False

    # ------------------------------------------------------------------
    # spawning
    # ------------------------------------------------------------------
    def _worker_command(self, shard_id: str, port: int, wal_dir: Path | None) -> list[str]:
        command = [
            sys.executable,
            "-m",
            "repro.cluster.worker",
            "--shard-id",
            shard_id,
            "--host",
            self._host,
            "--port",
            str(port),
        ]
        if wal_dir is not None:
            command += ["--wal-dir", str(wal_dir)]
            if self._wal_fsync:
                command.append("--wal-fsync")
        if self._profile:
            command.append("--profile")
        return command

    def _worker_env(self) -> dict[str, str]:
        # The worker must import `repro` exactly as this process does, even
        # when the package is only on sys.path (editable/source checkout).
        env = dict(os.environ)
        package_root = str(Path(__file__).resolve().parents[2])
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            package_root if not existing else package_root + os.pathsep + existing
        )
        return env

    def _spawn(self, shard_id: str, port: int) -> _ShardHandle:
        wal_dir = self._wal_root / shard_id if self._wal_root is not None else None
        process = subprocess.Popen(
            self._worker_command(shard_id, port, wal_dir),
            stdout=subprocess.PIPE,
            stderr=None,  # workers share the supervisor's stderr for debugging
            env=self._worker_env(),
        )
        try:
            bound_port, incarnation = self._await_ready(shard_id, process)
        except BaseException:  # an interrupt mid-startup must not leak the worker
            process.kill()
            process.wait()
            raise
        return _ShardHandle(shard_id, process, bound_port, wal_dir, incarnation)

    def _await_ready(self, shard_id: str, process: subprocess.Popen) -> tuple[int, str]:
        assert process.stdout is not None
        deadline = time.monotonic() + STARTUP_TIMEOUT_S
        result: dict[str, Any] = {}

        def read_line() -> None:
            try:
                result["line"] = process.stdout.readline()  # type: ignore[union-attr]
            except Exception as error:  # pragma: no cover - pipe teardown race
                result["error"] = error

        reader = threading.Thread(target=read_line, name="repro-shard-ready", daemon=True)
        reader.start()
        reader.join(max(0.0, deadline - time.monotonic()))
        if reader.is_alive() or "line" not in result:
            raise ClusterError(
                f"shard worker {shard_id!r} did not report readiness within "
                f"{STARTUP_TIMEOUT_S:g}s"
            )
        line = result["line"].decode("utf-8", "replace").strip()
        if not line.startswith(READY_PREFIX):
            code = process.poll()
            raise ClusterError(
                f"shard worker {shard_id!r} failed to start "
                f"(exit code {code}, first line {line!r})"
            )
        fields = _parse_ready_line(line)
        try:
            return int(fields["port"]), fields["incarnation"]
        except (KeyError, ValueError):
            raise ClusterError(
                f"shard worker {shard_id!r} readiness line is malformed: {line!r}"
            ) from None

    def start(self) -> list[ProcessShard]:
        """Spawn the fleet; returns one :class:`ProcessShard` per worker.

        Every worker starts at once, on one short-lived thread each; the
        pings begin once all of them reported ready.  If any worker fails to
        start, every worker is stopped.
        """
        if self._started:
            raise ClusterError("supervisor already started")
        self._started = True
        shard_ids = [f"shard-{index}" for index in range(self._n_shards)]
        errors: list[BaseException] = []

        def spawn(shard_id: str) -> None:
            try:
                handle = self._spawn(shard_id, port=0)
            except BaseException as error:
                errors.append(error)
                return
            with self._lock:
                if not self._closing.is_set():
                    self._handles[shard_id] = handle
                    return
            # The start was abandoned while this worker booted.
            handle.process.kill()
            handle.process.wait()

        shards: list[ProcessShard] = []
        try:
            spawners = [
                threading.Thread(target=spawn, args=(shard_id,), name="repro-shard-spawn")
                for shard_id in shard_ids
            ]
            for thread in spawners:
                thread.start()
            for thread in spawners:
                thread.join()
            if errors:
                raise errors[0]
            with self._lock:  # shard order, not the order the workers came up in
                self._handles = {shard_id: self._handles[shard_id] for shard_id in shard_ids}
                handles = list(self._handles.values())
            for handle in handles:
                shard = ProcessShard(handle.shard_id, BinaryShardClient(self._host, handle.port))
                shard.incarnation = handle.incarnation
                with self._lock:
                    self._shards[handle.shard_id] = shard
                shard._call("ping", {})  # liveness fence before the fleet is handed out
                shards.append(shard)
        except BaseException:  # Ctrl-C while the fleet starts stops what already runs
            self.close()
            raise
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="repro-shard-supervisor", daemon=True
        )
        self._monitor.start()
        return shards

    # ------------------------------------------------------------------
    # liveness monitoring
    # ------------------------------------------------------------------
    def _monitor_loop(self) -> None:
        while not self._closing.wait(POLL_INTERVAL_S):
            with self._lock:
                handles = list(self._handles.values())
            for handle in handles:
                code = handle.process.poll()
                if code is None or self._closing.is_set():
                    continue
                handle.events.append(f"exited with code {code}")
                if handle.restarts >= MAX_RESTARTS:
                    continue
                handle.restarts += 1
                try:
                    # Same port: the coordinator's pooled connections died
                    # with the old process, and its connect-phase retries
                    # land on the respawned worker transparently.
                    replacement = self._spawn(handle.shard_id, port=handle.port)
                except Exception as error:
                    handle.events.append(f"restart failed: {error}")
                    continue
                replacement.restarts = handle.restarts
                replacement.events = handle.events + ["restarted"]
                with self._lock:
                    if self._closing.is_set():
                        replacement.process.kill()
                        replacement.process.wait()
                        return
                    self._handles[handle.shard_id] = replacement
                    # A new store answers on the old port: the new token
                    # retires every view the coordinator holds of the old one.
                    self._shards[handle.shard_id].incarnation = replacement.incarnation

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def shard_ids(self) -> list[str]:
        with self._lock:
            return list(self._handles)

    def pid(self, shard_id: str) -> int:
        with self._lock:
            return self._handles[shard_id].process.pid

    def port(self, shard_id: str) -> int:
        with self._lock:
            return self._handles[shard_id].port

    def describe(self) -> dict[str, Any]:
        """Operator-facing fleet state (pids, ports, restart history)."""
        with self._lock:
            return {
                handle.shard_id: {
                    "pid": handle.process.pid,
                    "port": handle.port,
                    "alive": handle.process.poll() is None,
                    "restarts": handle.restarts,
                    "incarnation": handle.incarnation,
                    "wal_dir": str(handle.wal_dir) if handle.wal_dir else None,
                    "events": list(handle.events),
                }
                for handle in self._handles.values()
            }

    def wait_until_alive(self, shard_id: str, timeout: float = 30.0) -> None:
        """Block until ``shard_id`` answers a transport ping (post-restart)."""
        deadline = time.monotonic() + timeout
        with self._lock:
            shard = self._shards[shard_id]
        while True:
            try:
                shard._call("ping", {})
                return
            except ShardUnavailableError:
                if time.monotonic() >= deadline:
                    raise
                time.sleep(0.1)

    # ------------------------------------------------------------------
    # teardown
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Tear the fleet down (idempotent): clients, SIGTERM, then SIGKILL."""
        if self._closing.is_set():
            return
        self._closing.set()
        if self._monitor is not None:
            self._monitor.join(timeout=SHUTDOWN_TIMEOUT_S)
            self._monitor = None
        with self._lock:
            shards = list(self._shards.values())
            handles = list(self._handles.values())
            self._handles.clear()
            self._shards.clear()
        for shard in shards:
            shard.client.close()
        for handle in handles:
            if handle.process.poll() is None:
                handle.process.terminate()
        deadline = time.monotonic() + SHUTDOWN_TIMEOUT_S
        for handle in handles:
            remaining = max(0.0, deadline - time.monotonic())
            try:
                handle.process.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                handle.process.kill()
                handle.process.wait()
            if handle.process.stdout is not None:
                handle.process.stdout.close()

    def __enter__(self) -> ShardSupervisor:
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
