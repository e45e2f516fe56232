"""Unit tests for the repro-experiments command-line interface."""

import io
import os
import re
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import available_experiments, main


def _run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


class TestRegistry:
    def test_all_figures_and_ablations_are_registered(self):
        registry = available_experiments()
        for figure in range(5, 24):
            assert f"fig{figure:02d}" in registry
        assert "ablation_alpha_min" in registry
        assert "ablation_sub_buckets" in registry
        assert "ablation_repartition_threshold" in registry


class TestListCommand:
    def test_list_prints_every_experiment(self):
        code, output = _run(["list"])
        assert code == 0
        assert "fig05" in output
        assert "fig23" in output
        assert "ablation_alpha_min" in output


class TestRunCommand:
    def test_run_single_figure(self, tmp_path):
        code, output = _run(
            [
                "run",
                "fig22",
                "--scale",
                "0.01",
                "--runs",
                "1",
                "--csv-dir",
                str(tmp_path),
            ]
        )
        assert code == 0
        assert "fig22" in output
        assert "histogram + union" in output
        assert (tmp_path / "fig22.csv").exists()

    def test_run_unknown_experiment_fails_cleanly(self):
        code, output = _run(["run", "fig99"])
        assert code == 2
        assert "unknown experiment" in output

    def test_run_requires_arguments(self):
        with pytest.raises(SystemExit):
            main(["run"])


class TestCompareCommand:
    def test_compare_prints_leaderboard(self):
        code, output = _run(["compare", "--scale", "0.02", "--memory-kb", "0.25"])
        assert code == 0
        assert "DADO" in output
        assert "EQUI_WIDTH" in output
        assert "KS statistic" in output


class TestServeCommand:
    def test_serve_binds_and_exits_after_duration(self):
        code, output = _run(
            [
                "serve",
                "--port",
                "0",
                "--attribute",
                "age:dc:0.5",
                "-a",
                "price:dado",
                "--duration",
                "0.05",
            ]
        )
        assert code == 0
        assert "statistics service listening on http://127.0.0.1:" in output
        assert "attributes: age, price" in output

    def test_serve_accepts_live_requests(self):
        import io
        import re
        import threading
        import time

        from repro.service import StatisticsClient

        out = io.StringIO()
        thread = threading.Thread(
            target=main,
            args=(["serve", "--port", "0", "-a", "age:dc:0.5", "--duration", "1.5"],),
            kwargs={"out": out},
        )
        thread.start()
        try:
            deadline = time.time() + 5.0
            match = None
            while match is None and time.time() < deadline:
                match = re.search(r"http://127\.0\.0\.1:(\d+)", out.getvalue())
                if match is None:
                    time.sleep(0.01)
            assert match is not None, "server never reported its address"
            client = StatisticsClient("127.0.0.1", int(match.group(1)))
            client.ingest("age", insert=[float(v % 50) for v in range(500)])
            deadline = time.time() + 5.0
            while client.total_count("age") < 500 and time.time() < deadline:
                time.sleep(0.01)
            assert client.total_count("age") == pytest.approx(500.0)
        finally:
            thread.join(timeout=30)
        assert not thread.is_alive()

    def test_serve_rejects_bad_attribute_spec(self):
        code, output = _run(["serve", "--port", "0", "-a", "a:b:c:d", "--duration", "0"])
        assert code == 2
        assert "invalid attribute spec" in output

    def test_serve_interrupt_during_duration_tears_down(self, monkeypatch, tmp_path):
        """Ctrl-C while sleeping out ``--duration`` still stops the server
        thread and the flusher, and drains acknowledged buffered ingest into
        the WAL."""
        import threading
        import time as time_module

        from repro.service import HistogramStore, StatisticsClient

        real_sleep = time_module.sleep
        sentinel = 987.0
        out = io.StringIO()
        acknowledged = []

        def ingest_then_interrupt(seconds):
            if seconds != sentinel:
                real_sleep(seconds)
                return
            port = int(re.search(r"http://127\.0\.0\.1:(\d+)", out.getvalue()).group(1))
            client = StatisticsClient("127.0.0.1", port)
            acknowledged.append(client.ingest("age", insert=[float(v) for v in range(100)]))
            raise KeyboardInterrupt

        monkeypatch.setattr("repro.cli.time.sleep", ingest_then_interrupt)
        before = set(threading.enumerate())
        with pytest.raises(KeyboardInterrupt):
            main(
                ["serve", "--port", "0", "-a", "age:dc:0.5", "--flush-interval", "30",
                 "--wal-dir", str(tmp_path / "wal"), "--duration", str(sentinel)],
                out=out,
            )
        leaked = [
            thread.name
            for thread in threading.enumerate()
            if thread not in before and thread.name.startswith("repro-")
        ]
        assert leaked == []
        assert [response["buffered"] for response in acknowledged] == [True]
        store = HistogramStore.recover(tmp_path / "wal")
        try:
            assert store.total_count("age") == pytest.approx(100.0)
        finally:
            store.close()


def _alive(pid):
    """True while ``pid`` exists and is not a zombie (Linux ``/proc``)."""
    try:
        status = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return False
    return "\nState:\tZ" not in status


class TestTerminateSignal:
    """``kill -TERM`` on a real server process tears down like Ctrl-C."""

    @staticmethod
    def _terminate(args, ingest, signum=signal.SIGTERM):
        """Launch ``python -m repro.cli``, ingest through ``ingest(port)``, then
        send ``signum``; returns the exit code and the worker PIDs still alive."""
        src = str(Path(repro.__file__).resolve().parents[1])
        pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", *args, "--port", "0"],
            stdout=subprocess.PIPE,
            text=True,
            env=dict(os.environ, PYTHONPATH=pythonpath),
        )
        workers = []
        try:
            banner = ""
            for line in process.stdout:
                banner += line
                if line.startswith("attributes:"):
                    break
            workers = [int(pid) for pid in re.findall(r"\(pid (\d+),", banner)]
            assert workers or args[0] == "serve", banner
            ingest(int(re.search(r"http://127\.0\.0\.1:(\d+)", banner).group(1)))
            process.send_signal(signum)
            code = process.wait(timeout=60)
            return code, [pid for pid in workers if _alive(pid)]
        finally:
            if process.poll() is None:
                process.kill()
            process.wait()
            process.stdout.close()
            for pid in workers:
                if _alive(pid):
                    os.kill(pid, signal.SIGKILL)

    def test_serve_drains_acknowledged_ingest_into_the_wal(self, tmp_path):
        from repro.service import HistogramStore, StatisticsClient

        wal = tmp_path / "wal"

        def ingest(port):
            response = StatisticsClient("127.0.0.1", port).ingest(
                "age", insert=[float(v) for v in range(100)]
            )
            assert response["buffered"] is True

        code, _ = self._terminate(
            ["serve", "-a", "age:dc:0.5", "--flush-interval", "30", "--wal-dir", str(wal)],
            ingest,
        )
        assert code == 0
        store = HistogramStore.recover(wal)
        try:
            assert store.total_count("age") == pytest.approx(100.0)
        finally:
            store.close()

    def test_serve_cluster_stops_workers_and_keeps_their_wals(self, tmp_path):
        from repro.cluster import ClusterClient
        from repro.service import HistogramStore

        wal = tmp_path / "wal"

        def ingest(port):
            client = ClusterClient("127.0.0.1", port)
            assert client.ingest("age", insert=[float(v) for v in range(60)])["inserted"] == 60
            assert client.ingest("price", insert=[float(v) for v in range(40)])["inserted"] == 40

        code, survivors = self._terminate(
            ["serve-cluster", "--spawn-shards", "2", "-a", "age:dc:0.5", "-a", "price:dvo:0.5",
             "--wal-dir", str(wal)],
            ingest,
        )
        assert code == 0
        assert survivors == []
        recovered = {}
        for shard in ("shard-0", "shard-1"):
            store = HistogramStore.recover(wal / shard)
            try:
                for name in store.names():
                    recovered[name] = recovered.get(name, 0.0) + store.total_count(name)
            finally:
                store.close()
        assert recovered == {"age": pytest.approx(60.0), "price": pytest.approx(40.0)}

    def test_serve_cluster_shards_stops_its_workers_on_sigint(self):
        from repro.cluster import ClusterClient

        def ingest(port):
            assert ClusterClient("127.0.0.1", port).ingest("age", insert=[1.0])["inserted"] == 1

        code, survivors = self._terminate(
            ["serve-cluster", "--shards", "2", "-a", "age:dc:0.5"], ingest, signal.SIGINT
        )
        assert code == 0
        assert survivors == []


class TestStoreStatsCommand:
    def test_store_stats_pretty_prints_live_server(self):
        from repro.service import HistogramStore, StatisticsServer

        store = HistogramStore()
        store.create("age", "dc", memory_kb=0.5)
        store.insert("age", [float(v % 90) for v in range(2000)])
        with StatisticsServer(store) as server:
            host, port = server.address
            code, output = _run(["store-stats", "--host", host, "--port", str(port)])
        assert code == 0
        assert "age" in output
        assert "serving" in output
        assert "2000" in output

    def test_store_stats_unreachable_server_fails_cleanly(self):
        code, output = _run(["store-stats", "--port", "1"])
        assert code == 2
        assert "cannot reach statistics server" in output


class TestFormatStoreStats:
    def test_format_contains_all_columns(self):
        from repro.cli import format_store_stats
        from repro.service import HistogramStore

        store = HistogramStore()
        store.create("age", "dc", memory_kb=0.5)
        store.insert("age", [1.0, 2.0, 3.0])
        table = format_store_stats([s.to_dict() for s in store.stats_all()])
        assert "attribute" in table
        assert "age" in table
        assert "dc" in table


class TestServeClusterCommand:
    def test_serve_cluster_binds_and_exits_after_duration(self):
        code, output = _run(
            [
                "serve-cluster",
                "--port", "0",
                "--shards", "3",
                "-a", "age:dc:0.5",
                "-p", "hot:100,200",
                "--duration", "0.05",
            ]
        )
        assert code == 0
        assert "statistics cluster listening on http://127.0.0.1:" in output
        assert re.search(
            r"shards: shard-0 \(pid \d+, port \d+\), shard-1 \(pid \d+, port \d+\), "
            r"shard-2 \(pid \d+, port \d+\)\n",
            output,
        )
        assert "age" in output and "hot (partitioned)" in output

    def test_serve_cluster_accepts_live_requests(self):
        import io
        import re
        import threading
        import time

        from repro.cluster import ClusterClient

        out = io.StringIO()
        thread = threading.Thread(
            target=main,
            args=(
                ["serve-cluster", "--port", "0", "--shards", "2",
                 "-p", "hot:500", "--duration", "1.5"],
            ),
            kwargs={"out": out},
        )
        thread.start()
        try:
            deadline = time.time() + 5.0
            match = None
            while match is None and time.time() < deadline:
                match = re.search(r"http://127\.0\.0\.1:(\d+)", out.getvalue())
                if match is None:
                    time.sleep(0.01)
            assert match is not None, "cluster server never reported its address"
            client = ClusterClient("127.0.0.1", int(match.group(1)))
            client.ingest("hot", insert=[float(v % 1000) for v in range(400)])
            assert client.total_count("hot") == pytest.approx(400.0)
            stats = client.cluster_stats()
            assert "hot" in stats["placement"]["partitions"]
        finally:
            thread.join(timeout=30)
        assert not thread.is_alive()

    def test_serve_cluster_rejects_bad_partition_spec(self):
        code, output = _run(
            ["serve-cluster", "--port", "0", "-p", "hot:abc", "--duration", "0"]
        )
        assert code == 2
        assert "invalid partition spec" in output

    def test_serve_cluster_rejects_zero_shards(self):
        code, output = _run(["serve-cluster", "--shards", "0", "--duration", "0"])
        assert code == 2
        assert "--shards" in output

    def test_serve_cluster_rejects_zero_spawn_shards(self):
        code, output = _run(
            ["serve-cluster", "--spawn-shards", "0", "--duration", "0"]
        )
        assert code == 2
        assert "--spawn-shards" in output

    def test_serve_cluster_interrupt_during_duration_tears_down(self, monkeypatch):
        """Regression: Ctrl-C while sleeping out ``--duration`` must still
        run the shutdown path.  Before the fix the sleep had no try/finally,
        so the fan-out executor's non-daemon threads survived the
        KeyboardInterrupt and the process could never exit cleanly.
        """
        import threading
        import time as time_module

        real_sleep = time_module.sleep
        sentinel = 987.0

        def interrupting_sleep(seconds):
            if seconds == sentinel:
                raise KeyboardInterrupt
            real_sleep(seconds)

        monkeypatch.setattr("repro.cli.time.sleep", interrupting_sleep)
        with pytest.raises(KeyboardInterrupt):
            _run(
                ["serve-cluster", "--port", "0", "--shards", "2",
                 "-a", "age:dc:0.5", "--duration", str(sentinel)]
            )
        leaked = [
            thread
            for thread in threading.enumerate()
            if not thread.daemon and thread.name.startswith("repro-")
        ]
        assert leaked == []

    def test_serve_cluster_reports_fresh_logs_over_empty_wals(self, tmp_path):
        from repro.service import HistogramStore

        argv = ["serve-cluster", "--port", "0", "--spawn-shards", "2", "--duration", "0.05",
                "--wal-dir", str(tmp_path / "wal")]
        for _ in range(2):  # the workers leave empty logs behind
            code, output = _run(argv)
            assert code == 0
            assert "(fresh logs)" in output
        store, recovered = HistogramStore.open(tmp_path / "wal" / "shard-1")
        store.create("age", "dc", memory_kb=0.5)
        store.close()
        assert not recovered
        code, output = _run(argv)
        assert "(recovered existing catalogs)" in output

    def test_serve_cluster_interrupted_while_workers_start_leaves_no_worker(self, monkeypatch):
        from repro.cluster.supervisor import ShardSupervisor

        pids = []
        real_await_ready = ShardSupervisor._await_ready

        def await_ready(supervisor, shard_id, process):
            pids.append(process.pid)
            if shard_id == "shard-1":
                raise KeyboardInterrupt  # Ctrl-C while the second worker starts
            return real_await_ready(supervisor, shard_id, process)

        monkeypatch.setattr(ShardSupervisor, "_await_ready", await_ready)
        with pytest.raises(KeyboardInterrupt):
            _run(["serve-cluster", "--port", "0", "--shards", "2", "--duration", "0"])
        assert len(pids) == 2
        assert [pid for pid in pids if _alive(pid)] == []

    def test_serve_cluster_spawn_shards_runs_worker_processes(self, tmp_path):
        code, output = _run(
            ["serve-cluster", "--port", "0", "--spawn-shards", "2",
             "-a", "age:dc:0.5", "--duration", "0.05",
             "--wal-dir", str(tmp_path / "wal")]
        )
        assert code == 0
        assert "statistics cluster listening on http://127.0.0.1:" in output
        # The fleet line reports real processes, not in-process shards.
        assert "shard-0 (pid " in output and "shard-1 (pid " in output
        assert "worker-owned" in output
        # Each worker opened its own WAL under the shared root.
        assert (tmp_path / "wal" / "shard-0" / "wal.log").exists()
        assert (tmp_path / "wal" / "shard-1" / "wal.log").exists()


class TestDurableServe:
    def test_serve_wal_dir_recovers_catalog_across_restarts(self, tmp_path):
        from repro.service import HistogramStore

        wal_dir = tmp_path / "wal"
        # First life: create + ingest durably, then "crash" (exit).
        code, output = _run(
            ["serve", "--port", "0", "-a", "age:dc:0.5",
             "--flush-interval", "0", "--duration", "0.05",
             "--wal-dir", str(wal_dir)]
        )
        assert code == 0
        assert "fresh log" in output
        store = HistogramStore.recover(wal_dir)
        store.insert("age", [float(v % 50) for v in range(200)])
        store.close()
        # Second life: the catalog comes back with its data.
        code, output = _run(
            ["serve", "--port", "0", "--flush-interval", "0",
             "--duration", "0.05", "--wal-dir", str(wal_dir)]
        )
        assert code == 0
        assert "recovered existing catalog" in output
        assert "attributes: age" in output

    def test_serve_cluster_replication_and_wal_flags(self, tmp_path):
        code, output = _run(
            ["serve-cluster", "--port", "0", "--shards", "3",
             "--replication-factor", "2", "-a", "age:dc:0.5",
             "--wal-dir", str(tmp_path / "cluster-wal"), "--duration", "0.05"]
        )
        assert code == 0
        assert "replication factor: 2" in output
        assert "per-shard WALs" in output
        assert (tmp_path / "cluster-wal" / "shard-0" / "wal.log").exists()

    def test_serve_cluster_rejects_bad_replication_factor(self):
        code, output = _run(
            ["serve-cluster", "--shards", "2", "--replication-factor", "3",
             "--duration", "0"]
        )
        assert code == 2
        assert "--replication-factor" in output


class TestResyncCommand:
    def test_resync_heals_a_stale_replica_over_http(self):
        from repro.cluster import ClusterCoordinator, ClusterServer, LocalShard, ShardRouter
        from fault_injection import FlakyShard

        shards = [FlakyShard(LocalShard(f"shard-{i}")) for i in range(3)]
        router = ShardRouter([s.shard_id for s in shards], replication_factor=2)
        coordinator = ClusterCoordinator(shards, router=router)
        coordinator.create("age", "dc", memory_kb=0.5)
        primary_id, follower_id = coordinator.router.replicas_for("age")
        by_id = {s.shard_id: s for s in shards}
        by_id[follower_id].down = True
        coordinator.ingest("age", insert=[float(v) for v in range(100)])
        by_id[follower_id].down = False
        with ClusterServer(coordinator) as server:
            host, port = server.address
            code, output = _run(["resync", follower_id, "--host", host, "--port", str(port)])
        assert code == 0
        assert f"age <- {primary_id}" in output
        assert by_id[follower_id].inner.store.total_count("age") == pytest.approx(100.0)

    def test_resync_unreachable_server_fails_cleanly(self):
        code, output = _run(["resync", "shard-0", "--port", "1"])
        assert code == 2
        assert "failed" in output


class TestClusterStatsCommand:
    def test_cluster_stats_pretty_prints_live_cluster(self):
        from repro.cluster import ClusterCoordinator, ClusterServer, LocalShard

        coordinator = ClusterCoordinator([LocalShard("shard-0"), LocalShard("shard-1")])
        coordinator.create("age", "dc", memory_kb=0.5)
        coordinator.create("hot", "dc", partition_boundaries=[100.0])
        coordinator.ingest("hot", insert=[50.0, 150.0])
        coordinator.total_count("hot")
        with ClusterServer(coordinator) as server:
            host, port = server.address
            code, output = _run(["cluster-stats", "--host", host, "--port", str(port)])
        assert code == 0
        assert "2 shard(s)" in output
        assert "[shard-0]" in output and "[shard-1]" in output
        assert "range partitions:" in output
        assert "merged global histograms (cached):" in output

    def test_cluster_stats_unreachable_server_fails_cleanly(self):
        code, output = _run(["cluster-stats", "--port", "1"])
        assert code == 2
        assert "cannot reach cluster server" in output


class TestMetricsWatchCommand:
    def _serving(self):
        from repro.obs import MetricsRegistry
        from repro.service import HistogramStore, StatisticsServer

        registry = MetricsRegistry()
        store = HistogramStore(metrics=registry)
        return StatisticsServer(store, metrics=registry)

    def test_watch_reports_counter_deltas_and_gauge_values(self):
        import threading
        import time

        from repro.service import StatisticsClient

        with self._serving() as server:
            host, port = server.address
            client = StatisticsClient(host, port)
            client.create("age", "dc", memory_kb=0.5)

            def churn():
                for _ in range(10):
                    client.ingest("age", insert=[1.0, 2.0, 3.0])
                    time.sleep(0.02)

            worker = threading.Thread(target=churn)
            worker.start()
            code, output = _run(
                ["metrics", "--host", host, "--port", str(port), "--watch", "0.3"]
            )
            worker.join()
        assert code == 0
        assert "metrics delta over" in output
        # Counters that moved show a signed delta and a rate.
        assert "repro_store_mutations_total" in output
        assert "+" in output
        # Gauges show current values, not deltas.
        assert "repro_process_threads" in output
        # Histogram bucket series are folded away.
        assert "_bucket" not in output

    def test_watch_lists_each_workers_store_series(self):
        import threading
        import time

        from repro.cluster import ClusterClient, ClusterCoordinator, ClusterServer, ShardSupervisor
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        with ShardSupervisor(2) as supervisor:
            coordinator = ClusterCoordinator(supervisor.start(), metrics=registry)
            with ClusterServer(coordinator, metrics=registry) as server:
                host, port = server.address
                client = ClusterClient(host, port)
                client.create("hot", "dc", memory_kb=0.5, partition_boundaries=[500.0])

                def churn():
                    for _ in range(10):
                        client.ingest("hot", insert=[100.0, 900.0])
                        time.sleep(0.03)

                worker = threading.Thread(target=churn)
                worker.start()
                code, output = _run(
                    ["metrics", "--host", host, "--port", str(port), "--watch", "0.3"]
                )
                worker.join()
        assert code == 0
        for shard in ("shard-0", "shard-1"):
            assert f'repro_store_mutations_total{{shard="{shard}",attribute="hot"' in output
            assert f'repro_process_threads{{shard="{shard}"}}' in output

    def test_watch_rejects_nonpositive_interval(self):
        with self._serving() as server:
            host, port = server.address
            code, output = _run(
                ["metrics", "--host", host, "--port", str(port), "--watch", "0"]
            )
        assert code == 2
        assert "positive" in output

    def test_watch_unreachable_server_fails_cleanly(self):
        code, output = _run(["metrics", "--port", "1", "--watch", "0.1"])
        assert code == 2
        assert "cannot reach server" in output

    def test_parse_exposition_roundtrip(self):
        from repro.cli import parse_exposition

        text = (
            "# HELP x_total help\n"
            "# TYPE x_total counter\n"
            'x_total{a="1"} 5\n'
            "# TYPE y gauge\n"
            "y 2.5\n"
        )
        types, samples = parse_exposition(text)
        assert types == {"x_total": "counter", "y": "gauge"}
        assert samples == {'x_total{a="1"}': 5.0, "y": 2.5}


class TestServeProfileFlag:
    def test_serve_with_profile_exposes_attribution(self):
        import io
        import re
        import threading
        import time

        from repro.service import StatisticsClient

        out = io.StringIO()
        done = threading.Event()

        def run_server():
            main(
                [
                    "serve", "--port", "0", "--duration", "0.8",
                    "--attribute", "age:dc:0.5", "--profile",
                ],
                out=out,
            )
            done.set()

        thread = threading.Thread(target=run_server)
        thread.start()
        try:
            deadline = time.time() + 5.0
            port = None
            while time.time() < deadline and port is None:
                match = re.search(r"http://[\d.]+:(\d+)", out.getvalue())
                if match:
                    port = int(match.group(1))
                else:
                    time.sleep(0.02)
            assert port is not None, out.getvalue()
            client = StatisticsClient("127.0.0.1", port)
            client.ingest("age", insert=[float(v % 90) for v in range(2000)])
            profile = client._request("GET", "/profile")
            assert "samples" in profile and "hot_stacks" in profile
        finally:
            assert done.wait(10.0)
            thread.join()
