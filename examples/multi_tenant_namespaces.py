#!/usr/bin/env python3
"""Multi-tenancy on the hybrid SSD (paper Section V-D).

The dual-interface SSD supports paired namespaces: each tenant gets its
own run of block-region pages and its own Dev-LSM on a run of KV-region
pages.  This example carves namespaces for two tenants, prints the
carve-up, runs one tenant's KVACCEL stack on its namespace and then
deletes the other tenant's namespace, checking that the first tenant's
files keep every page.

Run:  python examples/multi_tenant_namespaces.py
"""

from repro import CpuModel, Environment, KvaccelDb, LsmOptions
from repro.device import (
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

# Tenant A's stack is built on ns_a: its Main-LSM file system allocates
# inside ns_a's block extent and its redirected writes land in ns_a's own
# Dev-LSM, whatever order the namespaces were carved in.  The NAND array,
# the ARM core and the PCIe link stay shared with every other tenant.
opts = LsmOptions(write_buffer_size=256 * KiB,
                  max_bytes_for_level_base=1 * MiB,
                  target_file_size_base=256 * KiB)
db_a = KvaccelDb(env, opts, ns_a, cpu, name="tenant-a", rollback="eager")


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

# Deleting a namespace trims its own block extent and resets its own
# Dev-LSM; every mapped page of tenant A's files stays mapped.
fs = db_a.main.fs
a_pages = [lpn for name in fs.list_files()
           for off, n in fs.open(name).extents
           for lpn in ns_a.block.pages(off, n) if ssd.ftl.is_mapped(lpn)]
assert a_pages
ssd.delete_namespace(ns_b.nsid)
assert all(map(ssd.ftl.is_mapped, a_pages))
print(f"after deleting tenant-b: {[ns.name for ns in ssd.namespaces()]}")
db_a.close()
