"""``env.probes``: one attribute per probe verb, claimed by the planes.

The stack calls its verbs unconditionally; what makes that right is pinned
here — an unclaimed verb does nothing and allocates nothing, each plane's
``install`` binds exactly the verbs it consumes (so install order cannot
matter), and call sites look the verb up at each visit rather than caching
it (so a plane installed after the stack was built is still seen).
"""

import itertools
import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from helpers import run, small_db  # noqa: E402

from repro.faults import FaultRegistry  # noqa: E402
from repro.faults.registry import fault_point, touch  # noqa: E402
from repro.obs import Journal, LineageProfiler, TelemetryHub, Tracer  # noqa: E402
from repro.sim import Environment, Probes  # noqa: E402
from repro.sim import core  # noqa: E402
from repro.types import encode_key  # noqa: E402

VERBS = ("touch", "at", "begin", "end", "instant", "add",
         "enter", "leave", "op_begin", "op_end")

INSTALLERS = {
    "faults": lambda env: FaultRegistry().install(env),
    "journal": lambda env: Journal().install(env),
    "tracer": lambda env: Tracer().install(env),
    "telemetry": lambda env: TelemetryHub(env).install(env),
    "lineage": lambda env: LineageProfiler(env).install(),
}

# The verbs each plane's install() claims — and nothing else.
CLAIMS = {
    "faults": {"touch", "at"},
    "journal": {"touch", "at"},
    "tracer": {"begin", "end", "instant"},
    "telemetry": {"add"},
    "lineage": {"enter", "leave", "op_begin", "op_end"},
}


def _owner(env, verb):
    """Which plane claimed a verb (None: still the class's no-op)."""
    fn = vars(env.probes).get(verb)
    if fn is None:
        noop = getattr(env.probes, verb)
        assert noop.__self__ is env.probes
        assert noop.__func__.__module__ == core.__name__
        return None
    if verb in ("touch", "at"):     # the shared pair, bound to the env
        assert fn.func is (touch if verb == "touch" else fault_point)
        assert fn.args == (env,)
        return "site"
    return type(fn.__self__).__name__


def test_fresh_probes_hold_only_the_kernel_noops():
    env = Environment()
    p = env.probes
    assert type(p) is Probes and vars(p) == {}
    assert all(_owner(env, verb) is None for verb in VERBS)
    assert {name for name in vars(Probes) if not name.startswith("_")} \
        == set(VERBS)
    assert p.touch("x") is None
    assert p.begin("cat", "name", None, {"k": 1}) is None
    assert p.end(None, {"k": 1}) is None and p.instant("cat", "name") is None
    assert p.add("ch", 3) is None and p.enter("seg") is None
    assert p.leave() is None
    assert p.op_end(p.op_begin("put", 2, 64, "db")) is None


def test_disabled_at_delegates_without_creating_a_generator():
    p = Environment().probes
    it = p.at("x")
    assert not isinstance(it, types.GeneratorType)
    assert list(it) == [] and p.at("y") is it      # shared, exhausted

    def site():
        action = yield from p.at("x")
        return action

    gen = site()
    with pytest.raises(StopIteration) as stop:
        next(gen)                   # ran to completion without yielding
    assert stop.value.value is None


@pytest.mark.parametrize("plane", sorted(INSTALLERS))
def test_install_claims_exactly_its_own_verbs(plane):
    env = Environment()
    INSTALLERS[plane](env)
    assert set(vars(env.probes)) == CLAIMS[plane]
    assert getattr(env, plane) is not None


def test_install_order_does_not_matter():
    bindings = set()
    for order in (sorted(INSTALLERS), sorted(INSTALLERS, reverse=True),
                  ["journal", "lineage", "faults", "telemetry", "tracer"]):
        env = Environment()
        for plane in order:
            INSTALLERS[plane](env)
        bindings.add(tuple(_owner(env, verb) for verb in VERBS))
    assert bindings == {("site", "site", "Tracer", "Tracer", "Tracer",
                         "TelemetryHub", "LineageProfiler", "LineageProfiler",
                         "LineageProfiler", "LineageProfiler")}


def test_site_verbs_serve_either_plane_alone():
    for planes in itertools.chain.from_iterable(
            itertools.permutations(("faults", "journal"), n) for n in (1, 2)):
        env = Environment()
        for plane in planes:
            INSTALLERS[plane](env)
        env.probes.touch("a.site")
        assert list(env.probes.at("b.site")) == []
        if env.faults is not None:
            assert env.faults.hits == {"a.site": 1, "b.site": 1}
        if env.journal is not None:
            assert env.journal.site_count == 2


def test_plane_installed_after_the_stack_is_built_is_seen():
    """Guards against a component caching a verb (``env.probes.touch``)
    at construction: every visit must look it up again."""
    env = Environment()
    db, _dev, _cpu = small_db(env)
    reg = FaultRegistry().install(env)
    tracer = Tracer().install(env)
    hub = TelemetryHub(env).install(env)

    def workload():
        for i in range(40):
            yield from db.put(encode_key(i), b"v" * 512)

    run(env, workload())
    assert reg.hits["db.write.applied"] == 40 and reg.hits["pcie.transfer"] > 0
    assert tracer.span_count > 0
    assert hub.channels["lsm.write_ops"].total == 40


def test_tracer_installed_mid_span_ignores_the_unopened_span():
    env = Environment()
    sp = env.probes.begin("cat", "early")       # no tracer yet: None
    tracer = Tracer().install(env)
    assert env.probes.end(sp, {"k": 1}) is None
    assert tracer.span_count == 0
