#!/usr/bin/env python3
"""Multi-tenancy on the hybrid SSD (paper Section V-D).

The dual-interface SSD supports paired namespaces: each tenant gets an
isolated slice of the block region and a quota in the KV region.  This
example carves namespaces for two tenants, prints the carve-up, runs one
tenant's KVACCEL stack on the device and then deletes the other tenant's
namespace.

Run:  python examples/multi_tenant_namespaces.py
"""

from repro import CpuModel, Environment, KvaccelDb, LsmOptions
from repro.device import (
    BlockDevice,
    HybridSsd,
    HybridSsdConfig,
    KiB,
    MiB,
    NandGeometry,
)

env = Environment()
cpu = CpuModel(env, cores=8)
ssd = HybridSsd(env, cpu, HybridSsdConfig(
    geometry=NandGeometry(blocks_per_way=128)))

# Carve paired (block, KV) namespaces for two tenants.
ns_a = ssd.create_namespace("tenant-a", block_bytes=64 * MiB,
                            kv_quota_bytes=16 * MiB)
ns_b = ssd.create_namespace("tenant-b", block_bytes=64 * MiB,
                            kv_quota_bytes=16 * MiB)
print("namespaces:")
for ns in ssd.namespaces():
    print(f"  nsid={ns.nsid} {ns.name}: block [{ns.block_offset}, "
          f"{ns.block_offset + ns.block_bytes}), kv quota "
          f"{ns.kv_quota_bytes // MiB} MiB")

# Tenant A's stack is built on the whole device (``ssd``), not on ns_a's
# slice: its Main-LSM file system allocates from the start of the whole
# block region.  That start is ns_a's slice only because ns_a was carved
# first; nothing confines the stack to it.  (The KV interface is
# shared through the controller in this prototype, exactly like the
# single-Dev-LSM design of the paper; per-tenant Dev-LSM isolation is the
# paper's cited follow-on work.)
opts = LsmOptions(write_buffer_size=256 * KiB,
                  max_bytes_for_level_base=1 * MiB,
                  target_file_size_base=256 * KiB)
db_a = KvaccelDb(env, opts, ssd, cpu, name="tenant-a", rollback="eager")


def workload():
    for i in range(500):
        yield from db_a.put(f"a:{i:05d}".encode(), b"A" * 512)
    v = yield from db_a.get(b"a:00042")
    assert v == b"A" * 512
    yield from db_a.wait_for_quiesce()


env.run(until=env.process(workload()))

print(f"\ntenant-a wrote 500 keys; simulated time {env.now*1000:.1f} ms")
print(f"device-wide PCIe traffic: {ssd.pcie.ledger.total_bytes // 1024} KiB")
print(f"block-region files: {len(db_a.main.fs.list_files())}")

# Deleting a namespace trims its block extents.
ssd.delete_namespace(ns_b.nsid)
print(f"after deleting tenant-b: {[ns.name for ns in ssd.namespaces()]}")
db_a.close()
