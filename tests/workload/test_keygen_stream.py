"""RandomKeys draws its keys in bulk, and the stream is exactly the
per-key ``random.Random(seed).randrange(key_space)`` one."""

import random

import pytest

from repro.workload import RandomKeys

SPACES = [1, 3, 1000, 1 << 22, (1 << 22) + 5, 1 << 25]


def _reference(space: int, seed: int, n: int) -> list:
    rng = random.Random(seed)
    return [rng.randrange(space) for _ in range(n)]


@pytest.mark.parametrize("space", SPACES)
def test_next_ints_is_the_randrange_stream(space):
    gen = RandomKeys(space, seed=11)
    got: list = []
    for n in (1, 32, 7, 500, 0, 129, 2000):     # across refills
        got += gen.next_ints(n)
    assert got == _reference(space, 11, len(got))


@pytest.mark.parametrize("space", SPACES)
def test_next_key_is_the_randrange_stream(space):
    gen = RandomKeys(space, key_size=4, seed=3)
    keys = [gen.next_key() for _ in range(700)]
    assert keys == [k.to_bytes(4, "big") for k in _reference(space, 3, 700)]


@pytest.mark.parametrize("space", SPACES)
def test_mixed_calls_share_one_buffer(space):
    gen = RandomKeys(space, seed=5)
    pick = random.Random(space)
    got: list = []
    while len(got) < 3000:
        if pick.random() < 0.3:
            got.append(int.from_bytes(gen.next_key(), "big"))
        else:
            got += gen.next_ints(pick.randrange(1, 70))
    assert got == _reference(space, 5, len(got))


def test_a_space_wider_than_32_bits_raises():
    RandomKeys((1 << 32) - 1)                   # 32-bit draws: fine
    with pytest.raises(ValueError, match="2\\*\\*32"):
        RandomKeys(1 << 32)                     # bit_length 33
    with pytest.raises(ValueError):
        RandomKeys(1 << 40)
