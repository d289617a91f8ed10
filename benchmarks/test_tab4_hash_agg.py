"""Tab. 4: key-value aggregation — Pangea hashmap vs STL map vs Redis.

Aggregate 50-300 million random <string,int> pairs (the incise.org
benchmark the paper follows) on the m3.xlarge box.

Paper shape: roughly comparable while everything fits in memory; the STL
unordered_map starts swapping at 200M keys (its allocator wastes more
memory than Pangea's slab pages) and becomes 40-50x slower; Redis pays a
client/server round trip per op, thrashes past memory, and fails at
300M; the Pangea hashmap only starts spilling at 300M and still
completes.
"""

from conftest import record_report

from repro import MachineProfile, PangeaCluster
from repro.baselines.host import BaselineHost
from repro.baselines.redis_kv import RedisOutOfMemoryError, RedisServer
from repro.baselines.stl_map import StlUnorderedMap
from repro.services.hashsvc import (
    ENTRY_OVERHEAD,
    HashServiceStats,
    VirtualHashBuffer,
)
from repro.sim.devices import GB, MB

COUNTS = [50, 100, 150, 200, 250, 300]  # millions of keys
ACTUAL_KEYS = 40_000
WORKERS = 4
POOL = 14 * GB
#: Logical payload bytes per entry (short string key + int); with the
#: hash service's ENTRY_OVERHEAD = 32 that is 52 bytes per logical entry —
#: the slab-allocator footprint that lets Pangea reach 300M keys.  Each
#: actual key stands for ``represent`` logical ones, so the payload it is
#: charged is the scaled footprint minus the overhead the service adds.
ENTRY_BYTES = 20
PANGEA_SECONDS_PER_OP = 2.64e-6  # calibrated: 50M keys in ~33 s


def run_pangea(millions: int) -> "tuple[float, HashServiceStats]":
    logical = millions * 1_000_000
    represent = logical / ACTUAL_KEYS
    cluster = PangeaCluster(
        num_nodes=1, profile=MachineProfile.m3_xlarge(num_disks=2, pool_bytes=POOL)
    )
    node = cluster.nodes[0]
    data = cluster.create_set("agg", durability="write-back", page_size=64 * MB)
    buffer = VirtualHashBuffer(
        data, num_root_partitions=200, combiner=lambda a, b: a + b
    )
    start = node.now
    nbytes = int((ENTRY_BYTES + ENTRY_OVERHEAD) * represent) - ENTRY_OVERHEAD
    for i in range(ACTUAL_KEYS):
        buffer.insert(("key", i), 1, nbytes=nbytes)
    node.cpu.parallel(logical * PANGEA_SECONDS_PER_OP, WORKERS)
    for _pair in buffer.items():
        pass
    return node.now - start, buffer.stats


def run_stl(millions: int) -> float:
    logical = millions * 1_000_000
    host = BaselineHost(MachineProfile.m3_xlarge(num_disks=2))
    table = StlUnorderedMap(host, memory_bytes=POOL)
    start = host.now
    table.insert_ops(logical, new_keys=logical, workers=1)
    return host.now - start


def run_redis(millions: int) -> "float | None":
    logical = millions * 1_000_000
    host = BaselineHost(MachineProfile.m3_xlarge(num_disks=2))
    redis = RedisServer(host, memory_bytes=POOL)
    start = host.now
    try:
        redis.execute_ops(logical, new_keys=logical, workers=1)
    except RedisOutOfMemoryError:
        return None
    return host.now - start


def _run_all():
    table = {}
    for millions in COUNTS:
        pangea, stats = run_pangea(millions)
        table[millions] = {
            "stl": run_stl(millions),
            "pangea": pangea,
            "spills": stats.spills,
            "redis": run_redis(millions),
        }
    return table


def test_tab4_hash_aggregation(benchmark):
    table = benchmark.pedantic(_run_all, rounds=1, iterations=1)
    lines = [
        f"{'Mkeys':>6s} {'STL map':>10s} {'Pangea':>10s} {'spills':>7s} "
        f"{'Redis':>10s}"
    ]
    for millions in COUNTS:
        row = table[millions]
        redis = "failed" if row["redis"] is None else f"{row['redis']:.0f}s"
        lines.append(
            f"{millions:6d} {row['stl']:9.0f}s {row['pangea']:9.0f}s "
            f"{row['spills']:7d} {redis:>10s}"
        )
    lines.append("")
    lines.append("Pangea's hash map spills from 250M on (one step before the paper)")
    lines.append("paper: STL swaps at 200M (7657s), Pangea spills only at 300M,")
    lines.append("Redis fails at 300M; Pangea up to 50x vs STL, 30x vs Redis")
    record_report("Tab. 4: key-value aggregation latency", lines)

    # In-memory region: same order of magnitude.
    assert table[100]["pangea"] < 3 * table[100]["stl"]
    # STL collapses at 200M keys; Pangea does not.
    assert table[200]["stl"] > 3 * table[150]["stl"]
    assert table[200]["stl"] > 5 * table[200]["pangea"]
    assert table[300]["stl"] > 20 * table[300]["pangea"]
    # Redis thrashes at >= 150M and fails at 300M.
    assert table[150]["redis"] > 3 * table[100]["redis"]
    assert table[300]["redis"] is None
    # Pangea completes everything, degrading only when spilling starts.
    assert all(table[m]["pangea"] is not None for m in COUNTS)
    assert table[300]["pangea"] > table[250]["pangea"]
    # The hash map fits in the pool up to 200M keys and spills at 300M.
    assert all(table[m]["spills"] == 0 for m in COUNTS if m <= 200)
    assert table[300]["spills"] > 0
