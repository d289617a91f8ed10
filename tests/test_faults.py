"""Tests for deterministic fault injection, retries, and page integrity."""

import numpy as np
import pytest

from repro import (
    FaultConfig,
    FaultInjector,
    MachineProfile,
    PageCorruptionError,
    PangeaCluster,
)
from repro.fs.page_file import SetFile, page_checksum
from repro.placement.partitioner import HashPartitioner, partition_set
from repro.placement.replication import register_replica
from repro.sim.clock import SimClock
from repro.sim.devices import MB, DiskArray, DiskDevice
from repro.sim.faults import TransientDiskError


def tiny_cluster(num_nodes=2, pool_mb=32):
    return PangeaCluster(
        num_nodes=num_nodes, profile=MachineProfile.tiny(pool_bytes=pool_mb * MB)
    )


def build_replicated(num_nodes=4, rows=600, page_size=1 * MB):
    cluster = tiny_cluster(num_nodes=num_nodes)
    src = cluster.create_set("src", page_size=page_size, object_bytes=100)
    src.add_data([{"a": i, "b": (i * 131) % 997, "id": i} for i in range(rows)])
    rep_a = cluster.create_set("rep_a", page_size=page_size, object_bytes=100)
    partition_set(src, rep_a, HashPartitioner(lambda r: r["a"], 16, key_name="a"))
    rep_b = cluster.create_set("rep_b", page_size=page_size, object_bytes=100)
    partition_set(src, rep_b, HashPartitioner(lambda r: r["b"], 16, key_name="b"))
    group = register_replica(rep_a, rep_b, object_id_fn=lambda r: r["id"])
    return cluster, group, rep_a, rep_b


class TestInjectorWiring:
    def test_attach_and_detach(self):
        cluster = tiny_cluster()
        injector = FaultInjector(seed=1).attach(cluster)
        for node in cluster.nodes:
            assert node.fault_injector is injector
            assert node.disks.fault_hook is not None
            assert node.network.fault_hook is not None
        injector.detach()
        for node in cluster.nodes:
            assert node.fault_injector is None
            assert node.disks.fault_hook is None
            assert node.network.fault_hook is None

    def test_disabled_injector_is_inert(self):
        cluster = tiny_cluster(num_nodes=1)
        injector = FaultInjector(
            seed=1, config=FaultConfig(disk_write_error_rate=1.0)
        ).attach(cluster)
        injector.enabled = False
        handle = cluster.nodes[0].fs.create_file("quiet")
        handle.write_page(1, ["x"], 1 * MB)
        assert injector.stats.total == 0
        assert cluster.nodes[0].robustness.retries == 0


class TestTransientFaults:
    def test_write_faults_absorbed_by_bounded_retries(self):
        cluster = tiny_cluster(num_nodes=1)
        injector = FaultInjector(
            seed=7, config=FaultConfig(disk_write_error_rate=0.4)
        ).attach(cluster)
        node = cluster.nodes[0]
        handle = node.fs.create_file("flaky")
        for page_id in range(1, 41):
            handle.write_page(page_id, [page_id], 1 * MB)
        assert injector.stats.disk_write_faults > 0
        assert node.robustness.retries >= injector.stats.disk_write_faults
        assert handle.num_pages == 40

    def test_streak_bound_keeps_certain_faults_survivable(self):
        """Even a 100% fault rate cannot out-streak the retry budget when
        max_consecutive_faults < max_attempts."""
        cluster = tiny_cluster(num_nodes=1)
        FaultInjector(
            seed=3,
            config=FaultConfig(disk_write_error_rate=1.0, max_consecutive_faults=2),
        ).attach(cluster)
        handle = cluster.nodes[0].fs.create_file("always")
        handle.write_page(1, ["x"], 1 * MB)  # must not raise
        assert cluster.nodes[0].robustness.retries > 0

    def test_unbounded_streak_exhausts_retries(self):
        cluster = tiny_cluster(num_nodes=1)
        FaultInjector(
            seed=3,
            config=FaultConfig(disk_write_error_rate=1.0, max_consecutive_faults=99),
        ).attach(cluster)
        handle = cluster.nodes[0].fs.create_file("doomed")
        with pytest.raises(TransientDiskError):
            handle.write_page(1, ["x"], 1 * MB)

    def test_retry_backoff_charges_simulated_time(self):
        plain = tiny_cluster(num_nodes=1)
        plain.nodes[0].fs.create_file("s").write_page(1, ["x"], 1 * MB)
        baseline = plain.simulated_seconds()

        faulty = tiny_cluster(num_nodes=1)
        FaultInjector(
            seed=3, config=FaultConfig(disk_write_error_rate=1.0)
        ).attach(faulty)
        faulty.nodes[0].fs.create_file("s").write_page(1, ["x"], 1 * MB)
        assert faulty.simulated_seconds() > baseline

    def test_latency_spike_charges_extra_time(self):
        plain = tiny_cluster(num_nodes=1)
        plain.nodes[0].fs.create_file("s").write_page(1, ["x"], 1 * MB)
        baseline = plain.simulated_seconds()

        spiky = tiny_cluster(num_nodes=1)
        injector = FaultInjector(
            seed=3,
            config=FaultConfig(
                disk_latency_spike_rate=1.0, disk_latency_spike_seconds=0.25
            ),
        ).attach(spiky)
        spiky.nodes[0].fs.create_file("s").write_page(1, ["x"], 1 * MB)
        assert injector.stats.latency_spikes == 1
        assert spiky.simulated_seconds() >= baseline + 0.25

    def test_net_drops_are_retried(self):
        cluster = tiny_cluster(num_nodes=1)
        injector = FaultInjector(
            seed=11, config=FaultConfig(net_drop_rate=0.5)
        ).attach(cluster)
        node = cluster.nodes[0]
        for _ in range(30):
            node.network.transfer(1 * MB)
        assert injector.stats.net_drops > 0
        assert node.robustness.retries >= injector.stats.net_drops
        assert node.network.stats.bytes_sent == 30 * MB


class TestSchedules:
    def test_scheduled_crash_fires_at_exact_count(self):
        cluster = tiny_cluster(num_nodes=2)
        injector = FaultInjector(seed=1).attach(cluster)
        injector.schedule_crash("disk.write", node_id=0, at_count=3)
        handle = cluster.nodes[0].fs.create_file("s")
        handle.write_page(1, ["x"], 1 * MB)
        handle.write_page(2, ["x"], 1 * MB)
        assert not cluster.nodes[0].failed
        handle.write_page(3, ["x"], 1 * MB)
        assert cluster.nodes[0].failed
        assert not cluster.nodes[1].failed
        assert injector.stats.crashes == 1

    def test_scheduled_corruption_hits_nth_write(self):
        cluster = tiny_cluster(num_nodes=1)
        injector = FaultInjector(seed=1).attach(cluster)
        injector.schedule_corruption("s", node_id=0, at_write=2)
        handle = cluster.nodes[0].fs.create_file("s")
        handle.write_page(1, ["good"], 1 * MB)
        handle.write_page(2, ["bad"], 1 * MB)
        assert handle.read_page(1)[0] == ["good"]
        with pytest.raises(PageCorruptionError):
            handle.read_page(2)
        assert injector.stats.corruptions_injected == 1


class TestReplayDeterminism:
    @staticmethod
    def _run(seed):
        cluster = tiny_cluster(num_nodes=2)
        injector = FaultInjector(
            seed=seed,
            config=FaultConfig(
                disk_read_error_rate=0.1,
                disk_write_error_rate=0.1,
                disk_latency_spike_rate=0.2,
                net_drop_rate=0.15,
            ),
        ).attach(cluster)
        for node in cluster.nodes:
            handle = node.fs.create_file("w")
            for page_id in range(1, 21):
                handle.write_page(page_id, [page_id], 1 * MB)
            for page_id in range(1, 21):
                handle.read_page(page_id)
            node.network.transfer(4 * MB)
        return (
            injector.stats.as_dict(),
            [node.robustness.as_dict() for node in cluster.nodes],
            cluster.simulated_seconds(),
        )

    def test_same_seed_same_schedule(self):
        assert self._run(42) == self._run(42)

    def test_faults_actually_occurred(self):
        stats, robustness, _seconds = self._run(42)
        assert stats["disk_read_faults"] + stats["disk_write_faults"] > 0
        assert sum(r["retries"] for r in robustness) > 0


@pytest.fixture
def disks():
    clock = SimClock()
    return DiskArray([DiskDevice(clock=clock), DiskDevice(clock=clock)])


def numpy_page():
    points = np.linspace(0.0, 1.0, 5000)
    points[1] = 0.123456789012
    return points


#: (index, new value) pairs that numpy's repr hides: a change in the 12th
#: significant digit (repr rounds to 8) and an element in the middle of a
#: long array (repr elides everything past the first and last three).
NUMPY_CORRUPTIONS = [
    pytest.param(1, 0.123456789013, id="12th-digit"),
    pytest.param(2500, -1.0, id="elided-element"),
]


class TestPageIntegrity:
    def test_checksum_is_payload_and_order_sensitive(self):
        assert page_checksum(["a", "b"]) == page_checksum(["a", "b"])
        assert page_checksum(["a", "b"]) != page_checksum(["b", "a"])
        assert page_checksum(["a"]) != page_checksum(["a", "a"])

    def test_corrupt_image_detected_on_read(self, disks):
        handle = SetFile("s", disks)
        handle.write_page(1, ["a", "b", "c"], 1 * MB)
        handle.corrupt_image(1)
        with pytest.raises(PageCorruptionError):
            handle.read_page(1)

    @pytest.mark.parametrize("index, value", NUMPY_CORRUPTIONS)
    def test_checksum_sees_numpy_value_change(self, index, value):
        before = numpy_page()
        after = before.copy()
        after[index] = value
        assert page_checksum([before]) != page_checksum([after])

    @pytest.mark.parametrize("index, value", NUMPY_CORRUPTIONS)
    def test_numpy_image_corruption_detected_on_read(self, index, value):
        node = tiny_cluster(num_nodes=1).nodes[0]
        handle = node.fs.create_file("points")
        handle.write_page(1, [numpy_page()], 1 * MB)
        # Stored images share their records with the written list, so the
        # array peek_records returns is the one on "disk".
        handle.peek_records(1)[0][index] = value
        with pytest.raises(PageCorruptionError):
            handle.read_page(1)
        assert node.robustness.corruptions_detected == 1

    def test_rewrite_clears_corruption(self, disks):
        handle = SetFile("s", disks)
        handle.write_page(1, ["a"], 1 * MB)
        handle.corrupt_image(1)
        handle.write_page(1, ["a2"], 1 * MB)
        assert handle.read_page(1)[0] == ["a2"]


class TestReadRepair:
    def test_corrupted_page_repaired_from_replica(self):
        cluster, group, rep_a, rep_b = build_replicated()
        shard = rep_a.shards[1]
        victim = next(p for p in shard.pages if p.on_disk)
        if victim.in_memory:
            shard.evict_page(victim)
        expected_ids = set(
            group.object_id_fn(r) for r in shard.file.peek_records(victim.page_id)
        )
        shard.file.corrupt_image(victim.page_id)
        records = list(rep_a.scan_records())
        assert {r["id"] for r in records} == set(range(600))
        node = shard.node
        assert node.robustness.corruptions_detected == 1
        assert node.robustness.read_repairs == 1
        assert node.pool.stats.read_repairs == 1
        # The repaired on-disk image matches the original objects.
        repaired, _cost = shard.file.read_page(victim.page_id)
        assert {group.object_id_fn(r) for r in repaired} == expected_ids

    def test_unrepairable_corruption_raises(self):
        cluster = tiny_cluster(num_nodes=2)
        lone = cluster.create_set("lone", page_size=1 * MB, object_bytes=100)
        lone.add_data([{"id": i} for i in range(50)])
        shard = lone.shards[0]
        page = shard.pages[0]
        if not page.on_disk:
            shard.evict_page(page)  # flush forces an on-disk image
        elif page.in_memory:
            shard.evict_page(page)
        shard.file.corrupt_image(page.page_id)
        with pytest.raises(PageCorruptionError):
            list(lone.scan_records())
        assert shard.node.robustness.read_repairs == 0

    def test_repair_falls_back_past_damaged_replica_copy(self):
        """When a replica copy unrelated to the lost objects is also corrupt,
        the repair skips it and still reconstructs from the healthy copies."""
        cluster, group, rep_a, rep_b = build_replicated(page_size=8192)
        shard = rep_a.shards[1]
        victim = next(p for p in shard.pages if p.on_disk)
        if victim.in_memory:
            shard.evict_page(victim)
        victim_ids = {
            group.object_id_fn(r) for r in shard.file.peek_records(victim.page_id)
        }
        shard.file.corrupt_image(victim.page_id)
        # Damage a rep_b image holding *different* objects (corrupting the
        # only surviving copy would make the data genuinely unrecoverable).
        spoiled = None
        for node_id in sorted(rep_b.shards):
            other = rep_b.shards[node_id]
            for page in other.pages:
                if not page.on_disk:
                    continue
                ids = {
                    group.object_id_fn(r)
                    for r in other.file.peek_records(page.page_id)
                }
                if ids and not ids & victim_ids:
                    spoiled = (other, page)
                    break
            if spoiled:
                break
        if spoiled is None:
            pytest.skip("no disjoint replica page in this layout")
        other, page = spoiled
        if page.in_memory:
            other.evict_page(page)
        other.file.corrupt_image(page.page_id)
        records = list(rep_a.scan_records())
        assert {r["id"] for r in records} == set(range(600))
