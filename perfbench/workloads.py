"""The benchmark's three workloads.

Each workload has four steps, which ``run.py`` runs in rounds on a fresh
cluster:

* ``setup(seed)`` builds the cluster and generates the input in memory;
  it does no storage work;
* ``load(state)`` writes the input into Pangea locality sets;
* ``job(state)`` runs one pass of the analytic job over the loaded data
  and returns its output;
* ``check(state, output, reference, index)`` compares the output of job
  pass ``index`` with an answer computed apart from the program
  (``reference(state)``) and returns one verdict per operation, plus a
  list of broken workload properties.

``counters(state, hash_buffers)`` reads the program's exact counters after
the job: ``repro.sim.metrics.collect``, ``HashServiceStats`` and
``SchedulerMetrics``.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from repro import MachineProfile, PangeaCluster
from repro.ml import kmeans
from repro.query.scheduler import QueryScheduler
from repro.services.hashsvc import VirtualHashBuffer
from repro.services.shuffle import ShuffleService
from repro.sim.devices import GB, MB
from repro.sim.metrics import collect, reconcile
from repro.tpch import (
    EXTRA_QUERIES,
    EXTRA_REFERENCE_QUERIES,
    FULL_QUERIES,
    FULL_REFERENCE_QUERIES,
    QUERIES,
    REFERENCE_QUERIES,
    TpchGenerator,
    register_tpch_replicas,
)
from repro.tpch.schema import ROW_BYTES


@dataclass
class State:
    """One round's cluster, inputs and what the steps learn about them."""

    cluster: PangeaCluster
    inputs: dict
    #: Logical bytes of user input written by the load.
    user_bytes: int = 0
    #: Page-outs done by the end of the load.
    load_pageouts: int = 0
    #: Highest pool use seen at the step boundaries the benchmark drives.
    peak_pool_bytes: int = 0
    extra: dict = field(default_factory=dict)

    def sample_pool(self) -> None:
        self.peak_pool_bytes = max(
            self.peak_pool_bytes, self.cluster.total_pool_bytes_used()
        )


def _pool_totals(cluster: PangeaCluster) -> dict:
    metrics = collect(cluster)
    return {
        "pageouts": sum(n.pageouts for n in metrics.nodes),
        "evictions": metrics.total_evictions,
        "pageins": sum(n.pageins for n in metrics.nodes),
    }


def _base_counters(state: State, hash_buffers: list) -> dict:
    metrics = collect(state.cluster)
    hits = sum(n.cost_cache_hits for n in metrics.nodes)
    misses = sum(n.cost_cache_misses for n in metrics.nodes)
    written = sum(n.disk_bytes_written for n in metrics.nodes)
    return {
        "core.evictions": metrics.total_evictions,
        "core.eviction_rounds": metrics.total_eviction_rounds,
        "core.pageouts": sum(n.pageouts for n in metrics.nodes),
        "core.pageins": sum(n.pageins for n in metrics.nodes),
        "core.cost_cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "fs.disk_bytes_written": written,
        "fs.disk_bytes_read": sum(n.disk_bytes_read for n in metrics.nodes),
        "fs.bytes_written_per_user_byte": written / state.user_bytes,
        "sim.network_bytes_sent": metrics.total_network_bytes,
        "buffer.peak_pool_bytes": state.peak_pool_bytes,
        "services.hashsvc.spills": sum(b.stats.spills for b in hash_buffers),
        "services.hashsvc.splits": sum(b.stats.splits for b in hash_buffers),
        "services.hashsvc.reloads": sum(b.stats.reloads for b in hash_buffers),
        "query.batches_processed": 0,
        "query.mean_batch_fill": 0.0,
        "query.shuffled_bytes": 0,
        "query.copartitioned_joins": 0,
        "query.repartition_joins": 0,
        "query.parallel_stages": 0,
        "placement.colliding_objects": 0,
    }


# ----------------------------------------------------------------------
# kmeans-paging: Fig. 3 k-means at 3 billion points
# ----------------------------------------------------------------------


class KMeansPaging:
    """Fig. 3 k-means on 10 r4.2xlarge nodes with 50 GB pools.

    Each actual point stands for ``REPRESENT`` logical 10-d points, so
    12,000 points are 3 billion logical ones (360 GB), and the write-back
    norms set adds 384 GB more: both outgrow the 500 GB of pool.  The seed
    also picks the exact count, up to 1% more, so simulated times vary
    with the input as they do on the other workloads.
    """

    name = "kmeans-paging"
    #: The first pass after a load finds the pool full of points it no
    #: longer needs and pages nothing in; the next two read evicted pages
    #: back, so the median pass is one of them.
    PASSES = 3
    OPS_PER_PASS = 1
    NODES = 10
    REPRESENT = 250_000
    POINTS = 12_000
    EXTRA_POINTS = 120
    K = 10
    ITERATIONS = 5

    def setup(self, seed: int) -> State:
        extra = int(np.random.default_rng([seed, 1]).integers(0, self.EXTRA_POINTS))
        # Called through the module, where the tracer wraps it.
        points = kmeans.generate_points(self.POINTS + extra, seed=seed)
        cluster = PangeaCluster(
            num_nodes=self.NODES,
            profile=MachineProfile.r4_2xlarge(pool_bytes=50 * GB),
            policy="data-aware",
        )
        state = State(cluster=cluster, inputs={"points": points})
        state.extra["kmeans"] = kmeans.PangeaKMeans(
            cluster, k=self.K, dims=10, workers=8
        )
        return state

    def load(self, state: State) -> None:
        data = state.extra["kmeans"].load_points(
            state.inputs["points"], represent=self.REPRESENT
        )
        state.extra["data"] = data
        state.user_bytes = data.logical_bytes
        state.sample_pool()

    def job(self, state: State):
        result = state.extra["kmeans"].run(
            state.extra["data"], represent=self.REPRESENT, iterations=self.ITERATIONS
        )
        state.peak_pool_bytes = max(state.peak_pool_bytes, result.peak_pool_bytes)
        return result.centroids

    def reference(self, state: State) -> np.ndarray:
        """Plain Lloyd's iterations from the seed points ``PangeaKMeans``
        samples: the first k points of node 0, which ``add_data`` deals
        every ``NODES``-th point."""
        points = state.inputs["points"]
        centroids = points[:: self.NODES][: self.K].copy()
        for _ in range(self.ITERATIONS):
            distances = np.stack(
                [((points - c) ** 2).sum(axis=1) for c in centroids], axis=1
            )
            assignment = distances.argmin(axis=1)
            for cluster_id in range(self.K):
                members = points[assignment == cluster_id]
                if len(members):
                    centroids[cluster_id] = members.mean(axis=0)
        return centroids

    def check(self, state: State, output, reference, index: int) -> tuple[list, list]:
        ok = output.shape == reference.shape and bool(
            np.allclose(output, reference, rtol=1e-9, atol=1e-9)
        )
        broken = []
        totals = _pool_totals(state.cluster)
        if totals["evictions"] == 0:
            broken.append("k-means evicted nothing")
        # The first pass after the load finds the points it evicts no
        # longer needed; the passes after it read evicted pages back.
        if index > 0 and totals["pageins"] == 0:
            broken.append("k-means paged nothing in")
        return [("centroids", ok)], broken

    def counters(self, state: State, hash_buffers: list) -> dict:
        return _base_counters(state, hash_buffers)


# ----------------------------------------------------------------------
# tpch-replicas: Fig. 5 TPC-H with heterogeneous replicas
# ----------------------------------------------------------------------


ALL_QUERIES = {**QUERIES, **EXTRA_QUERIES, **FULL_QUERIES}
ALL_REFERENCES = {
    **REFERENCE_QUERIES,
    **EXTRA_REFERENCE_QUERIES,
    **FULL_REFERENCE_QUERIES,
}


def rows_match(got: list, want: list, rel: float = 1e-6, abs_tol: float = 1e-2) -> bool:
    """Field-by-field row comparison with a float tolerance: distributed
    execution sums floats in another order than the reference does."""
    if len(got) != len(want):
        return False
    for g, w in zip(got, want):
        if set(g) != set(w):
            return False
        for key, wv in w.items():
            gv = g[key]
            if isinstance(wv, float) or isinstance(gv, float):
                scale = max(abs(float(wv)), 1.0)
                if abs(float(gv) - float(wv)) > max(abs_tol, rel * scale) + 1e-9:
                    return False
            elif gv != wv:
                return False
    return True


class TpchReplicas:
    """The Fig. 5 scale-100 shape: scale-0.004 rows, each carrying the
    logical bytes and per-record CPU of ``ROW_SCALE`` rows, on 10 nodes
    with 80 GB pools (all data fits, so nothing pages)."""

    name = "tpch-replicas"
    PASSES = 1
    OPS_PER_PASS = len(ALL_QUERIES)
    NODES = 10
    SCALE = 0.004
    ROW_SCALE = 100 / SCALE
    PAGE_SIZE = 256 * MB
    #: Queries the heterogeneous replicas turn into co-partitioned joins.
    REPLICA_QUERIES = ("Q04", "Q12", "Q13", "Q14", "Q17", "Q22")

    def setup(self, seed: int) -> State:
        cluster = PangeaCluster(
            num_nodes=self.NODES,
            profile=MachineProfile.r4_2xlarge(pool_bytes=80 * GB),
        )
        for node in cluster.nodes:
            node.cpu.per_object_overhead *= self.ROW_SCALE
        tables = TpchGenerator(scale=self.SCALE, seed=seed).all_tables()
        return State(cluster=cluster, inputs={"tables": tables})

    def load(self, state: State) -> None:
        cluster = state.cluster
        for name, rows in state.inputs["tables"].items():
            dataset = cluster.create_set(
                name,
                durability="write-through",
                page_size=self.PAGE_SIZE,
                object_bytes=max(1, int(ROW_BYTES[name] * self.ROW_SCALE)),
            )
            dataset.add_data(rows)
            state.user_bytes += dataset.logical_bytes
            state.sample_pool()
        groups = register_tpch_replicas(cluster, row_scale=self.ROW_SCALE)
        state.extra["groups"] = {id(g): g for g in groups.values()}
        state.sample_pool()

    def job(self, state: State) -> dict:
        results = {}
        schedulers = {}
        for name in sorted(ALL_QUERIES):
            scheduler = QueryScheduler(
                state.cluster,
                broadcast_threshold=512 * MB,
                object_bytes=int(ROW_BYTES["lineitem"] * self.ROW_SCALE),
            )
            results[name] = ALL_QUERIES[name](scheduler)
            schedulers[name] = scheduler.metrics
            state.sample_pool()
        state.extra["schedulers"] = schedulers
        return results

    def reference(self, state: State) -> dict:
        tables = state.inputs["tables"]
        return {name: ALL_REFERENCES[name](tables) for name in ALL_QUERIES}

    def check(
        self, state: State, output: dict, reference: dict, index: int
    ) -> tuple[list, list]:
        schedulers = state.extra["schedulers"]
        verdicts = []
        for name in sorted(ALL_QUERIES):
            ok = rows_match(output[name], reference[name])
            if name in self.REPLICA_QUERIES:
                ok = ok and schedulers[name].copartitioned_joins >= 1
            verdicts.append((name, ok))
        broken = []
        if _pool_totals(state.cluster)["evictions"]:
            broken.append("TPC-H evicted pages although all data fits")
        return verdicts, broken

    def counters(self, state: State, hash_buffers: list) -> dict:
        counters = _base_counters(state, hash_buffers)
        metrics = list(state.extra["schedulers"].values())
        batches = sum(m.batches_processed for m in metrics)
        counters.update(
            {
                "query.batches_processed": batches,
                "query.mean_batch_fill": (
                    sum(m.batch_records for m in metrics) / batches if batches else 0.0
                ),
                "query.shuffled_bytes": sum(m.shuffled_bytes for m in metrics),
                "query.copartitioned_joins": sum(m.copartitioned_joins for m in metrics),
                "query.repartition_joins": sum(m.repartition_joins for m in metrics),
                "query.parallel_stages": sum(m.parallel_stages for m in metrics),
                "placement.colliding_objects": sum(
                    g.num_colliding for g in state.extra["groups"].values()
                ),
            }
        )
        return counters


# ----------------------------------------------------------------------
# shuffle-agg-spill: shuffle write, then hash aggregation that spills
# ----------------------------------------------------------------------


class ShuffleAggSpill:
    """One m3.xlarge node with a 2 GB pool.

    The load shuffles ``PAIRS`` seeded ``(key, count)`` pairs (the seed
    adds up to 1% more) from ``WORKERS`` writers into ``PARTITIONS``
    partition sets; each pair is charged ``PAIR_BYTES`` logical bytes,
    3.2 GB in all, so shuffle pages are written back while they are
    written.  The job reads each partition back and
    sums the counts per key through a ``VirtualHashBuffer`` whose entries
    are charged ``ENTRY_BYTES`` each, so its pages split and spill.
    """

    name = "shuffle-agg-spill"
    PASSES = 1
    POOL = 2 * GB
    PAIRS = 200_000
    EXTRA_PAIRS = 2_000
    KEYS = 50_000
    WORKERS = 4
    PARTITIONS = 8
    PAIR_BYTES = 16 * 1024
    ENTRY_BYTES = 256 * 1024
    HASH_PAGE = 16 * MB
    HASH_ROOTS = 16
    OPS_PER_PASS = PARTITIONS

    def setup(self, seed: int) -> State:
        rng = random.Random(seed)
        num_pairs = self.PAIRS + rng.randrange(self.EXTRA_PAIRS)
        key_ids = [rng.randrange(self.KEYS) for _ in range(num_pairs)]
        pairs = [(f"key{k:07d}", rng.randrange(1, 100)) for k in key_ids]
        partitions = [k % self.PARTITIONS for k in key_ids]
        cluster = PangeaCluster(
            num_nodes=1,
            profile=MachineProfile.m3_xlarge(num_disks=2, pool_bytes=self.POOL),
        )
        return State(cluster=cluster, inputs={"pairs": pairs, "partitions": partitions})

    def load(self, state: State) -> None:
        node = state.cluster.nodes[0]
        pairs, partitions = state.inputs["pairs"], state.inputs["partitions"]
        service = ShuffleService(
            state.cluster,
            "pairs",
            num_partitions=self.PARTITIONS,
            page_size=64 * MB,
            small_page_size=4 * MB,
            object_bytes=self.PAIR_BYTES,
        )
        share = -(-len(pairs) // self.WORKERS)
        for worker in range(self.WORKERS):
            chunk = slice(worker * share, (worker + 1) * share)
            service.write_batch(worker, pairs[chunk], partitions[chunk], worker_node=node)
            state.sample_pool()
        service.finish_writing()
        state.extra["service"] = service
        state.user_bytes = sum(
            service.partition_set(p).logical_bytes for p in range(self.PARTITIONS)
        )
        state.load_pageouts = _pool_totals(state.cluster)["pageouts"]

    def job(self, state: State) -> list:
        cluster = state.cluster
        service = state.extra["service"]
        totals = []
        buffers = []
        for partition in range(self.PARTITIONS):
            temp = cluster.create_set(
                f"sums_p{partition}", durability="write-back", page_size=self.HASH_PAGE
            )
            buffer = VirtualHashBuffer(
                temp, num_root_partitions=self.HASH_ROOTS, combiner=_add
            )
            for iterator in service.partition_set(partition).get_page_iterators(1):
                for page in iterator:
                    records = page.records
                    buffer.insert_many(
                        [r[0] for r in records],
                        [r[1] for r in records],
                        nbytes=self.ENTRY_BYTES,
                    )
            state.sample_pool()
            totals.append(dict(buffer.items()))
            buffers.append(buffer)
            buffer.release()
            temp.end_lifetime()
            cluster.drop_set(temp.name)
        state.extra["buffers"] = buffers
        return totals

    def reference(self, state: State) -> list:
        per_partition = [Counter() for _ in range(self.PARTITIONS)]
        for (key, count), partition in zip(
            state.inputs["pairs"], state.inputs["partitions"]
        ):
            per_partition[partition][key] += count
        return per_partition

    def check(
        self, state: State, output: list, reference: list, index: int
    ) -> tuple[list, list]:
        verdicts = [
            (f"partition{p}", output[p] == dict(reference[p]))
            for p in range(self.PARTITIONS)
        ]
        broken = []
        if state.load_pageouts == 0:
            broken.append("the shuffle write did not spill")
        if sum(b.stats.spills for b in state.extra["buffers"]) == 0:
            broken.append("the hash aggregation did not spill")
        return verdicts, broken

    def counters(self, state: State, hash_buffers: list) -> dict:
        return _base_counters(state, hash_buffers)


def _add(a: int, b: int) -> int:
    return a + b


def common_properties(state: State) -> list:
    """Properties every workload must keep: the per-set registry agrees
    with the pool counters."""
    return [f"reconcile: {p}" for p in reconcile(collect(state.cluster))]


WORKLOADS = {w.name: w for w in (KMeansPaging(), TpchReplicas(), ShuffleAggSpill())}
