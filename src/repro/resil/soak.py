"""Chaos soak: seeded fault storms against a full KVACCEL stack.

``python -m repro.faults soak`` drives a deterministic mixed workload
(stall windows, redirected writes, drains) while the fault registry
injects device command failures, and asserts the durability invariants
afterwards:

* ``transient`` mode — probabilistic failures with ``note="transient"``
  on the NVMe-KV submission sites, the PCIe link and NAND programs, plus
  the wear-driven NAND error model.  Every failure must be absorbed by
  the retry stack: zero data loss, the system ends HEALTHY, and the
  ``degraded_mode_entered`` health rule never fires.
* ``persistent`` mode — every Dev-LSM write command fails with
  ``note="persistent"``.  The degradation state machine must suspend
  Dev-LSM admission and serve every write from Main-LSM: zero data loss,
  the system ends DEGRADED, fallback writes are observed, and the final
  rollback leaves both the Dev-LSM and the metadata table empty.

Everything derives from one seed (workload stream, fault schedule, retry
jitter), so a failing storm reproduces exactly from the printed seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..device.error_model import NandErrorConfig
from ..faults.kit import SMALL_RESILIENCE, OracleClient, scripted_stack
from ..faults.plan import AlwaysPlan, ProbabilisticPlan
from ..faults.registry import FAIL, FaultAction, FaultRegistry
from ..obs import HealthMonitor, TelemetryHub, default_rules
from ..sim import Environment
from ..types import encode_key
from .degrade import DEGRADED, HEALTHY
from .errors import DeviceError

__all__ = ["SoakConfig", "SoakResult", "run_soak", "SOAK_MODES"]

SOAK_MODES = ("transient", "persistent")
# Keys the workload draws from.
KEY_SPACE = 64
# Telemetry bucket (sim seconds).
SAMPLE_PERIOD = 0.002


@dataclass(frozen=True)
class SoakConfig:
    """One soak run: mode, seed, and storm intensity."""

    mode: str = "transient"
    seed: int = 0xC0FFEE
    ops: int = 400                 # workload operations (x scale)
    scale: int = 1
    fault_rate: float = 0.02       # per-hit FAIL probability (transient)

    def __post_init__(self) -> None:
        if self.mode not in SOAK_MODES:
            raise ValueError(f"mode must be one of {SOAK_MODES}")
        if self.ops < 1 or self.scale < 1:
            raise ValueError("ops/scale must be >= 1")
        if not 0.0 <= self.fault_rate <= 1.0:
            raise ValueError("fault_rate must be in [0, 1]")


@dataclass
class SoakResult:
    """Outcome of one soak run (``ok`` gates CI)."""

    mode: str
    seed: int
    sim_time: float = 0.0
    acked_ops: int = 0
    aborted_ops: int = 0
    read_errors: int = 0
    final_state: str = ""
    device_errors: int = 0
    fallback_writes: int = 0
    kv_retries: int = 0
    block_retries: int = 0
    injected_faults: int = 0
    violations: list = field(default_factory=list)        # oracle Violations
    invariant_failures: list = field(default_factory=list)  # strings
    health: dict = field(default_factory=dict)            # rule -> enters
    health_events: list = field(default_factory=list)     # HealthEvent dicts

    @property
    def ok(self) -> bool:
        return not self.violations and not self.invariant_failures

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "seed": self.seed,
            "ok": self.ok,
            "sim_time": self.sim_time,
            "acked_ops": self.acked_ops,
            "aborted_ops": self.aborted_ops,
            "read_errors": self.read_errors,
            "final_state": self.final_state,
            "device_errors": self.device_errors,
            "fallback_writes": self.fallback_writes,
            "kv_retries": self.kv_retries,
            "block_retries": self.block_retries,
            "injected_faults": self.injected_faults,
            "violations": [v.describe() for v in self.violations],
            "invariant_failures": list(self.invariant_failures),
            "health": dict(self.health),
            "health_events": list(self.health_events),
        }

    def summary_lines(self) -> list[str]:
        status = "ok" if self.ok else "FAIL"
        lines = [
            f"[{status}] soak mode={self.mode} seed={self.seed:#x} "
            f"sim_time={self.sim_time:.3f}s",
            f"  acked={self.acked_ops} aborted={self.aborted_ops} "
            f"read_errors={self.read_errors} final_state={self.final_state}",
            f"  injected={self.injected_faults} "
            f"retries(kv={self.kv_retries}, block={self.block_retries}) "
            f"device_errors={self.device_errors} "
            f"fallbacks={self.fallback_writes}",
        ]
        fired = {k: v for k, v in self.health.items() if v}
        lines.append(f"  health: {fired if fired else 'quiet'}")
        for v in self.violations:
            lines.append(f"  violation: {v.describe()}")
        for msg in self.invariant_failures:
            lines.append(f"  invariant: {msg}")
        return lines


def _arm_storm(registry, config: SoakConfig) -> None:
    if config.mode == "transient":
        act = FaultAction(FAIL, note="transient")
        p = config.fault_rate
        for site in ("kv.put.submit", "kv.put_batch.submit",
                     "kv.delete.submit", "kv.get.submit"):
            registry.arm(site, ProbabilisticPlan(p, rng=registry.rng), act)
        # Lower-probability faults on the shared fabric: these sites are
        # hit many times per command (per transfer / per NAND op), so the
        # per-hit rate is scaled down to keep whole-command retry budgets
        # realistic.
        registry.arm("pcie.transfer",
                     ProbabilisticPlan(p / 10, rng=registry.rng), act)
        registry.arm("nand.program",
                     ProbabilisticPlan(p / 10, rng=registry.rng), act)
    else:
        act = FaultAction(FAIL, note="persistent")
        for site in ("kv.put.submit", "kv.put_batch.submit",
                     "kv.delete.submit"):
            registry.arm(site, AlwaysPlan(), act)


def run_soak(config: SoakConfig) -> SoakResult:
    """Run one seeded fault storm and check the durability invariants."""
    env = Environment()
    registry = FaultRegistry(config.seed).install(env)
    hub = TelemetryHub(env, period=SAMPLE_PERIOD).install(env)
    # The soak runs on a compressed millisecond timescale, so the absolute
    # retries/second threshold is recalibrated: ~10 retries per bucket
    # marks a storm, well above what fault_rate-sized transient glitches
    # produce and well below a flapping device.
    monitor = HealthMonitor(hub, default_rules(
        period=SAMPLE_PERIOD, retry_storm_rate=10.0 / SAMPLE_PERIOD))
    nand_errors = None
    if config.mode == "transient":
        # Wear-driven NAND error model: small base rates so a fresh device
        # still sees program failures and ECC read-retry latency tails.
        nand_errors = NandErrorConfig(seed=config.seed,
                                      program_fail_base=0.002,
                                      read_retry_base=0.02)
    db = scripted_stack(env, resilience=SMALL_RESILIENCE,
                        nand_errors=nand_errors)
    client = OracleClient(db, seed=config.seed)
    _arm_storm(registry, config)
    result = SoakResult(mode=config.mode, seed=config.seed)
    rng = random.Random(f"{config.seed}:soak-workload")
    value_of = lambda i: (b"s:%08d;" % i) * 32          # ~352 B per value

    def write(op):
        try:
            yield from op
        except DeviceError:            # refused: the client aborted it
            if db.main.background_error is not None:
                db.main.resume()       # operator action: clear + retry later

    def get(key):
        try:
            yield from client.get(key)
        except DeviceError:
            result.read_errors += 1    # e.g. uncorrectable media error

    def workload():
        total = config.ops * config.scale
        window = max(1, total // 8)
        for i in range(total):
            w, r = divmod(i, window)
            if r == 0:
                stalled = w % 2 == 1
                db.detector.stall_condition = stalled
                if not stalled and (not db.ssd.kv.is_empty
                                    or db.resil.wants_drain()):
                    # Window-boundary drain: the eager rollback the
                    # daemons would run between stalls (DEGRADED ->
                    # RECOVERING when the state machine asked for it).
                    yield from db.rollback_manager.rollback_once()
            roll = rng.random()
            key = encode_key(rng.randrange(KEY_SPACE))
            if roll < 0.65:
                yield from write(client.put(key, value_of(i)))
            elif roll < 0.75:
                yield from write(client.delete(key))
            else:
                yield from get(key)
        # Closing stall probe: a deterministic tail of redirected writes
        # so the final state reflects the storm itself, not whichever
        # window parity the op count happened to end on.
        db.detector.stall_condition = True
        for j in range(4):
            yield from write(client.put(encode_key(KEY_SPACE + j),
                                        value_of(total + j)))
        db.detector.stall_condition = False

    env.run(until=env.process(workload()))
    result.acked_ops = client.oracle.acked_ops
    result.aborted_ops = client.oracle.aborted_ops
    result.injected_faults = len(registry.injected)
    # Storm over: disarm before the assessment phase so the drain and the
    # differential read-back measure what the storm left behind.
    registry.clear_arms()
    if db.main.background_error is not None:
        db.main.resume()
    env.run(until=env.process(db.main.wait_for_quiesce()))
    env.run(until=env.process(db.final_rollback()))
    result.violations = env.run(
        until=env.process(client.oracle.verify(db, allow_inflight=True)))

    result.sim_time = env.now
    result.final_state = db.resil.state
    result.device_errors = db.resil.device_errors
    result.fallback_writes = db.resil.fallback_writes
    result.kv_retries = db.ssd.kv.retry.stats.retries
    result.block_retries = db.ssd.block.retry.stats.retries
    result.health = monitor.summary()
    result.health_events = [e.to_dict() for e in monitor.events]

    fail = result.invariant_failures.append
    if not db.ssd.kv.is_empty:
        fail("Dev-LSM not empty after the final rollback")
    if len(db.metadata) != 0:
        fail("metadata table not empty after the final rollback")
    if config.mode == "transient":
        if result.final_state != HEALTHY:
            fail(f"transient storm must end HEALTHY, got {result.final_state}")
        if monitor.fired("degraded_mode_entered"):
            fail("degraded_mode_entered fired during a transient-only storm")
        if monitor.fired("retry_storm"):
            fail("retry_storm fired during a transient-only storm")
    else:
        if result.final_state != DEGRADED:
            fail(f"persistent storm must end DEGRADED, got "
                 f"{result.final_state}")
        if not monitor.fired("degraded_mode_entered"):
            fail("degraded_mode_entered never fired under persistent faults")
        if result.fallback_writes == 0:
            fail("no fallback writes observed under persistent faults")
    db.close()
    return result
