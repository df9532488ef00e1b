"""Audit: every hot kernel class is fully ``__slots__``-ed.

The inlined dispatch loop banks on instances having no ``__dict__`` — a
single slotless class in the hierarchy silently re-grows per-instance
dicts and costs ~56 bytes and a dict allocation per event.  This audit
fails the moment anyone adds an unslotted attribute or base class.
"""

import pytest

from repro.sim import core, resources
from repro.sim.eventqueue import EventQueue

HOT_CLASSES = [
    core.Event,
    core.Timeout,
    core.Process,
    core._ProcessResume,
    core._MultiEvent,
    core.AllOf,
    core.AnyOf,
    core.MacroStats,
    core.Environment,
    resources.Request,
    resources.PriorityRequest,
    EventQueue,
]


@pytest.mark.parametrize("cls", HOT_CLASSES,
                         ids=lambda c: c.__name__)
def test_hot_class_declares_slots_through_whole_mro(cls):
    for klass in cls.__mro__:
        if klass is object:
            continue
        assert "__slots__" in vars(klass), (
            f"{cls.__name__}: base {klass.__name__} has no __slots__ — "
            f"instances grow a __dict__")


def test_environment_hot_attributes_live_in_slots():
    # Environment deliberately keeps a __dict__ for extension layers
    # (faults, tracer, telemetry hang state off the env) — but the
    # kernel-hot attributes must stay in slots, not fall into it.
    env = core.Environment()
    for attr in ("_now", "_queue", "_seq", "_active_process", "_observer"):
        assert attr not in env.__dict__, f"{attr} fell out of __slots__"
        assert hasattr(env, attr)


@pytest.mark.parametrize(
    "cls", [c for c in HOT_CLASSES if c is not core.Environment],
    ids=lambda c: c.__name__)
def test_hot_class_instances_have_no_dict(cls):
    env = core.Environment()
    if cls is core.MacroStats:
        obj = env.macro
    elif cls is EventQueue:
        obj = env._queue
    elif cls is core.Timeout:
        obj = env.timeout(1.0)
    elif cls is core.Process:
        def gen():
            yield env.timeout(1.0)
        obj = env.process(gen())
    elif cls in (core.AllOf, core.AnyOf):
        obj = cls(env, [env.event()])
    elif cls is resources.Request:
        obj = resources.Resource(env, capacity=1).request()
    elif cls is resources.PriorityRequest:
        obj = resources.PriorityResource(env).request(priority=1)
    elif cls is core._MultiEvent:
        obj = core._MultiEvent(env, [env.event()])
    elif cls is core._ProcessResume:
        obj = core._ProcessResume(env)
    else:
        obj = cls(env)
    assert not hasattr(obj, "__dict__"), f"{cls.__name__} grew a __dict__"
