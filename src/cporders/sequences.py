"""Integer sequences behind the flippable-pair counting: the odd insertion
values q_n with their +-1 companions, and Fibonacci numbers.

Everything is arbitrary-precision; q_n is computed both from the closed form
(2^n + (-1)^(n+1))/3 and from the recurrence q_n = q_{n-1} + 2 q_{n-2}
(seeds q_3 = 3, q_4 = 5), and the two must agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import VerificationError


@dataclass(frozen=True)
class QSequence:
    """q_n together with its neighbours q_n - 1 and q_n + 1."""

    n: int
    q: int
    q_minus: int
    q_plus: int


@lru_cache(maxsize=None)
def q_value(n: int) -> QSequence:
    if n < 3:
        raise ValueError(f"q_n is defined for n >= 3, got {n}")
    q, remainder = divmod((1 << n) + (-1) ** (n + 1), 3)
    # recurrence cross-check from the seeds q_3 = 3, q_4 = 5
    a, b = 3, 5
    for _ in range(n - 4):
        a, b = b, b + 2 * a
    rec = a if n == 3 else b
    if remainder or q != rec:
        raise VerificationError(f"closed form and recurrence disagree at n={n}")
    # q = 2 + (-1)^(n+1) (mod 4); q - 1 and q + 1 follow by shifting
    if (q - 2 - (-1) ** (n + 1)) % 4:
        raise VerificationError(f"q_{n} breaks its congruence mod 4")
    return QSequence(n, q, q - 1, q + 1)


def fibonacci(k: int) -> int:
    """F_k with F_1 = F_2 = 1."""
    if k < 1:
        raise ValueError(f"Fibonacci index must be >= 1, got {k}")
    a, b = 1, 1
    for _ in range(k - 1):
        a, b = b, a + b
    return a
