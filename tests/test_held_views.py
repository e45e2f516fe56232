"""Cluster estimates served from views the coordinator holds.

The coordinator answers estimates from published views it fetched earlier
and holds them only while the version rule proves them current (see the
"Estimates from held views" section of ``repro.cluster.coordinator``).  The
property every test here checks, one way or another: a served answer equals
``evaluate_queries`` on a *fresh* ``published`` view of the replica the
response names -- or, for a partitioned attribute, a from-scratch
superimpose of the pieces' fresh views -- whatever writes, lost replies,
store swaps, resyncs, restores and re-creates came before it.

Two searches back the single scenarios: a hypothesis walk over random
action sequences (slow suite), and a deterministic companion that runs
every sequence of depth 4 over one alphabet, on 2 pieces at replication
factor 2, checking after every step -- so every interleaving of depth <= 4
is covered (depth 3 in the fast suite).  The system is small enough to
enumerate instead of proving an inductive invariant.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fault_injection import FlakyShard
from repro.cluster import ClusterCoordinator, LocalShard, ShardRouter
from repro.core.base import SnapshotHistogram
from repro.core.segment_view import SegmentView
from repro.distributed.union import superimpose
from repro.exceptions import ShardUnavailableError, UnknownAttributeError
from repro.obs import MetricsRegistry
from repro.service import HistogramStore
from repro.service.store import evaluate_queries

CUT = 500.0
QUERIES = [
    {"op": "total"},
    {"op": "range", "low": 120.0, "high": 730.0},
    {"op": "equal", "value": 300.0},
    {"op": "cdf", "xs": [0.0, 250.0, 500.0, 900.0]},
    {"op": "selectivity", "low": 0.0, "high": 450.0},
]
#: Errors a read may legitimately raise: a replica without the attribute
#: (swapped, or missed a create) and an unreachable replica set.
READ_ERRORS = (UnknownAttributeError, ShardUnavailableError)


def fresh_view(shard, name):
    """The replica's published view right now, read past any fault script."""
    inner = shard.inner if isinstance(shard, FlakyShard) else shard
    return SnapshotHistogram(SegmentView.from_wire(inner.published(name)["view"]))


def expected_results(coordinator, by_id, name, response):
    """What the response must say: the fresh view of the replica it names."""
    if response.get("merged"):
        pieces = coordinator.router.partition_for(name).piece_shard_ids
        members = [fresh_view(by_id[response["shards"][piece]], name) for piece in pieces]
        return evaluate_queries(superimpose(members), QUERIES)
    return evaluate_queries(fresh_view(by_id[response["shard"]], name), QUERIES)


def check_reads(coordinator, by_id):
    """Read both attributes twice (fetch, then held); each answer must match."""
    for name in ("age", "hot"):
        checked = {}
        for _ in range(2):
            try:
                response = coordinator.query(name, QUERIES)
            except READ_ERRORS:
                continue
            source = str(response.get("shards", response.get("shard")))
            if source not in checked:
                checked[source] = expected_results(coordinator, by_id, name, response)
            assert response["results"] == checked[source]


class Cluster:
    """2 pieces x rf 2 (``hot``) plus one unpartitioned attribute (``age``)."""

    def __init__(self):
        shards = [FlakyShard(LocalShard(f"shard-{index}")) for index in range(4)]
        router = ShardRouter([shard.shard_id for shard in shards], replication_factor=2)
        self.coordinator = ClusterCoordinator(shards, router=router)
        self.by_id = {shard.shard_id: shard for shard in shards}
        self.step = 0
        self.create_hot()
        self.coordinator.create("age", "dc", memory_kb=0.5)
        self.coordinator.ingest("age", insert=[float(v % 90) for v in range(40)])

    def create_hot(self):
        self.coordinator.create("hot", "dc", memory_kb=0.5, partition_boundaries=[CUT])
        self.coordinator.ingest("hot", insert=[float(v * 17 % 1000) for v in range(60)])

    def piece(self, index):
        """(primary, follower) shard ids of ``hot``'s piece ``index``."""
        return list(self.coordinator.router.partition_replicas("hot").values())[index]

    def values(self, low, high, count=6):
        self.step += 1
        span = high - low
        return [low + (self.step * 37 + 11 * i) % span for i in range(count)]

    # -- actions: each may fail the way a real cluster would -------------
    def write(self):
        inserts = self.values(520.0, 990.0)
        # One value create_hot inserted, a different one every step.
        delete = [float(17 * self.step)]
        self.coordinator.ingest_batch(
            {
                "age": {"insert": self.values(0.0, 90.0)},
                "hot": {"insert": inserts, "delete": delete},
            }
        )

    def lost_reply(self):
        """Piece 0's and age's primaries apply a write and lose the reply."""
        self.by_id[self.piece(0)[0]].fail_next_ingests(1, when="after")
        self.by_id[self.coordinator.router.replicas_for("age")[0]].fail_next_ingests(
            1, when="after"
        )
        self.coordinator.ingest_batch(
            {"age": self.values(0.0, 90.0), "hot": self.values(10.0, 480.0)}
        )

    def lost_everywhere(self):
        """Both replicas of piece 1 apply a write and lose the reply."""
        for shard_id in self.piece(1):
            self.by_id[shard_id].fail_next_ingests(1, when="after")
        with pytest.raises(ShardUnavailableError):
            self.coordinator.ingest("hot", insert=self.values(600.0, 990.0))

    def swap(self):
        """A WAL-less restart of piece 1's primary that someone re-seeded
        behind the coordinator's back: same generations, another store."""
        inner = self.by_id[self.piece(1)[0]].inner
        inner.store = HistogramStore()
        inner.create("hot", "dc", memory_kb=0.5)
        inner.ingest_many({"hot": {"insert": [700.0] * 5}})

    def resync(self):
        try:
            self.coordinator.resync(self.piece(1)[0])
        except READ_ERRORS:
            pass  # a sibling without the attribute cannot seed it

    def restore(self):
        try:
            self.coordinator.restore("age", self.coordinator.snapshot("age"))
        except READ_ERRORS:
            pass

    def recreate(self):
        self.coordinator.drop("hot")
        self.create_hot()


ACTIONS = ("write", "lost_reply", "lost_everywhere", "swap", "resync", "recreate")


def run(actions):
    cluster = Cluster()
    check_reads(cluster.coordinator, cluster.by_id)
    for action in actions:
        getattr(cluster, action)()
        check_reads(cluster.coordinator, cluster.by_id)


class TestVersionRule:
    def test_a_store_swap_on_a_piece_is_never_served_from_the_old_view(self):
        """The WAL-less restart reproduction: the piece-generation sum is 2
        before and after the swap, and the answer must still change."""
        low, high = LocalShard("s0"), LocalShard("s1")
        coordinator = ClusterCoordinator([low, high])
        coordinator.create(
            "hot", "dc", memory_kb=0.5, partition_boundaries=[CUT], partition_shards=["s0", "s1"]
        )
        coordinator.ingest(
            "hot", insert=[float(v) for v in range(0, 500, 10)] + [float(v) for v in range(505, 1000, 10)]
        )
        assert coordinator.total_count("hot") == pytest.approx(100.0)
        assert coordinator.estimate_range("hot", 600.0, 1000.0) == pytest.approx(40.0, abs=0.5)

        high.store = HistogramStore()  # s1 comes back empty
        high.create("hot", "dc", memory_kb=0.5)
        coordinator.ingest("hot", insert=[700.0] * 5)
        assert coordinator.query("hot", [{"op": "total"}])["generation"] == 2
        assert coordinator.total_count("hot") == pytest.approx(55.0)
        assert coordinator.estimate_range("hot", 600.0, 1000.0) == pytest.approx(5.0, abs=0.5)

    def test_reads_are_held_until_a_write_and_count_as_such(self):
        registry = MetricsRegistry()
        coordinator = ClusterCoordinator([LocalShard("s0"), LocalShard("s1")], metrics=registry)
        coordinator.create("age", "dc", memory_kb=0.5)
        coordinator.create("hot", "dc", memory_kb=0.5, partition_boundaries=[CUT])
        coordinator.ingest("age", insert=[1.0, 2.0, 3.0])
        coordinator.ingest("hot", insert=[100.0, 900.0])
        reads = registry.get("repro_cluster_view_reads_total")
        for _ in range(3):
            assert coordinator.total_count("age") == pytest.approx(3.0)
            assert coordinator.total_count("hot") == pytest.approx(2.0)
        assert (reads.value(outcome="fetched"), reads.value(outcome="held")) == (2, 4)
        coordinator.ingest("hot", insert=[950.0])
        assert coordinator.total_count("hot") == pytest.approx(3.0)
        assert coordinator.total_count("age") == pytest.approx(3.0)
        assert (reads.value(outcome="fetched"), reads.value(outcome="held")) == (3, 5)

    def test_a_merged_read_refetches_only_the_piece_that_moved(self):
        cluster = Cluster()
        coordinator, by_id = cluster.coordinator, cluster.by_id
        coordinator.total_count("hot")
        before = {shard_id: shard.calls["published"] for shard_id, shard in by_id.items()}
        coordinator.ingest("hot", insert=[10.0])  # piece 0 only
        coordinator.total_count("hot")
        fetched = {
            shard_id for shard_id, shard in by_id.items() if shard.calls["published"] > before[shard_id]
        }
        assert fetched == {cluster.piece(0)[0]}

    def test_a_lost_reply_everywhere_still_drops_the_held_views(self):
        cluster = Cluster()
        coordinator = cluster.coordinator
        before = coordinator.total_count("hot")
        cluster.lost_everywhere()  # applied on both replicas, acknowledged on none
        assert coordinator.stale_replicas() == []
        assert coordinator.total_count("hot") == pytest.approx(before + 6.0)
        check_reads(coordinator, cluster.by_id)

    def test_a_fetch_racing_a_restart_is_not_held_under_the_new_token(self):
        """The worker restarts while the fetch is in flight: the reply comes
        from the old store and the token changes before it arrives."""

        class RestartingShard(LocalShard):
            restart_during_fetch = False

            def published(self, name):
                reply = super().published(name)
                if self.restart_during_fetch:
                    self.restart_during_fetch = False
                    self.store = HistogramStore()
                    self.create(name, "dc", memory_kb=0.5)
                return reply

        shard = RestartingShard("s0")
        coordinator = ClusterCoordinator([shard])
        coordinator.create("age", "dc", memory_kb=0.5)
        coordinator.ingest("age", insert=[1.0, 2.0, 3.0])
        shard.restart_during_fetch = True
        assert coordinator.total_count("age") == pytest.approx(3.0)  # the old store's answer
        assert coordinator.total_count("age") == pytest.approx(0.0)  # never held: fetched again

    def test_a_fetch_racing_a_recreate_is_not_held(self):
        """The attribute is dropped and created again while a fetch is in
        flight: the old view must not be held against the new attribute."""

        class RacingShard(LocalShard):
            during_fetch = None

            def published(self, name):
                reply = super().published(name)
                if self.during_fetch is not None:
                    action, self.during_fetch = self.during_fetch, None
                    action()
                return reply

        shard = RacingShard("s0")
        coordinator = ClusterCoordinator([shard])
        coordinator.create("age", "dc", memory_kb=0.5)
        coordinator.ingest("age", insert=[1.0, 2.0, 3.0])

        def recreate():
            coordinator.drop("age")
            coordinator.create("age", "dc", memory_kb=0.5)

        shard.during_fetch = recreate
        assert coordinator.total_count("age") == pytest.approx(3.0)  # read before the drop
        assert coordinator.total_count("age") == pytest.approx(0.0)

    def test_a_shard_without_a_known_incarnation_is_never_held(self):
        class AnonymousShard(LocalShard):
            incarnation = None

        shard = AnonymousShard("s0")
        coordinator = ClusterCoordinator([shard])
        coordinator.create("age", "dc", memory_kb=0.5)
        coordinator.ingest("age", insert=[1.0])
        for _ in range(2):
            assert coordinator.total_count("age") == pytest.approx(1.0)
        shard.store.insert("age", [2.0])  # behind the coordinator's back
        assert coordinator.total_count("age") == pytest.approx(2.0)

    def test_create_drop_and_restore_discard_the_views(self):
        shards = [LocalShard("s0"), LocalShard("s1")]
        coordinator = ClusterCoordinator(shards)
        coordinator.create("age", "dc", memory_kb=0.5)
        coordinator.ingest("age", insert=[1.0, 2.0])
        snapshot = coordinator.snapshot("age")
        coordinator.ingest("age", insert=[3.0])
        assert coordinator.total_count("age") == pytest.approx(3.0)
        coordinator.restore("age", snapshot)
        assert coordinator.total_count("age") == pytest.approx(2.0)
        coordinator.drop("age")
        with pytest.raises(UnknownAttributeError):
            coordinator.total_count("age")
        coordinator.create("age", "dc", memory_kb=0.5)
        assert coordinator.total_count("age") == pytest.approx(0.0)
        # Dropped behind the coordinator's back: the create through it
        # starts a new attribute whose generations count from zero again.
        coordinator.ingest("age", insert=[4.0, 5.0])
        assert coordinator.total_count("age") == pytest.approx(2.0)
        home = coordinator.shard(coordinator.router.shard_for("age"))
        home.drop("age")
        coordinator.create("age", "dc", memory_kb=0.5)
        assert coordinator.total_count("age") == pytest.approx(0.0)


class TestConcurrentReadersAndWriters:
    """Many request threads share the held views; none may read behind a
    write acknowledged before its read began."""

    def test_reads_never_lag_an_acknowledged_write(self):
        import sys
        import threading

        cluster = Cluster()
        coordinator, by_id = cluster.coordinator, cluster.by_id
        acknowledged = {"age": 40.0, "hot": 60.0}
        ack_lock = threading.Lock()
        errors: list[BaseException] = []

        def writer(seed):
            for step in range(30):
                name = "age" if step % 2 else "hot"
                values = [float((seed * 131 + step * 17 + i) % 990) for i in range(4)]
                coordinator.ingest(name, insert=values)
                with ack_lock:
                    acknowledged[name] += len(values)

        def reader():
            last = {"age": 0.0, "hot": 0.0}
            for step in range(120):
                name = "age" if step % 2 else "hot"
                with ack_lock:
                    floor = acknowledged[name]
                total = coordinator.total_count(name)
                assert total >= floor - 1e-6, (name, total, floor)
                assert total >= last[name] - 1e-6, (name, total, last[name])
                last[name] = total

        def run(target, *args):
            try:
                target(*args)
            except BaseException as error:  # noqa: BLE001 - reported below
                errors.append(error)

        threads = [threading.Thread(target=run, args=(writer, seed)) for seed in range(3)]
        threads += [threading.Thread(target=run, args=(reader,)) for _ in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        for name in ("age", "hot"):
            assert coordinator.total_count(name) == pytest.approx(acknowledged[name])
        check_reads(coordinator, by_id)


class TestEveryInterleaving:
    """Every action sequence of one depth, checked after every step, so every
    interleaving up to that depth is covered: depth 3 in the fast suite,
    depth 4 (1,296 sequences) in the slow one."""

    @pytest.mark.parametrize("first", ACTIONS)
    def test_every_sequence_of_depth_3(self, first):
        for rest in itertools.product(ACTIONS, repeat=2):
            run((first, *rest))

    @pytest.mark.slow
    @pytest.mark.parametrize("first", ACTIONS)
    def test_every_sequence_of_depth_4(self, first):
        for rest in itertools.product(ACTIONS, repeat=3):
            run((first, *rest))


MORE_ACTIONS = (*ACTIONS, "restore")


@pytest.mark.slow
@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from(MORE_ACTIONS), min_size=1, max_size=12))
def test_served_answers_match_a_fresh_view_after_any_history(actions):
    run(actions)
