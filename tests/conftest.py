from fractions import Fraction

import pytest

from slowent import cutstack, rng


@pytest.fixture(scope="session")
def sched_default():
    """Greedy minimal schedule, theta = 1/3, c = 2: r = (1, 28, 185221, ...)."""
    return cutstack.build_schedule(4, Fraction(1, 3), 2, 1)


@pytest.fixture(scope="session")
def sched_c5():
    """Loose-spacing variant, theta = 1/3, c = 5: r = (1, 217, ...)."""
    return cutstack.build_schedule(4, Fraction(1, 3), 5, 1)


@pytest.fixture(scope="session")
def sched_theta4():
    """theta = 1/4, c = 2: r = (1, 82, ...)."""
    return cutstack.build_schedule(4, Fraction(1, 4), 2, 1)


class _CountedHash:
    """A hash state that counts its finalized 64-byte digests, and those of its copies."""

    def __init__(self, state, counts: dict):
        self._state, self._counts = state, counts

    def copy(self):
        return _CountedHash(self._state.copy(), self._counts)

    def update(self, data) -> None:
        self._state.update(data)

    def digest(self) -> bytes:
        if self._state.digest_size == 64:
            self._counts["digests"] += 1
        return self._state.digest()


@pytest.fixture
def letter_digests(monkeypatch):
    """Counts of the 64-byte digests (the fair-bit blocks) finalized through rng."""
    counts = {"digests": 0}
    real = rng.blake2b
    monkeypatch.setattr(rng, "blake2b", lambda *args, **kwargs: _CountedHash(real(*args, **kwargs), counts))
    return counts
