"""The reference loops that the benchmark's time metrics are divided by.

On a shared machine the speed of a fixed piece of Python code drifts by
more than 1.5x, for seconds at a time and over minutes.  The benchmark
therefore times a reference loop right before and right after every unit
of work and reports the unit's seconds divided by the loop's mean time
(unit ``ref``).

The drift does not hit all code alike: when interpreted code got 1.9x
faster, the certificate batch, mostly big-integer arithmetic in C, got
only 1.4x faster.  So there are two loops, and each workload is divided
by the one that does its kind of work:

* ``python``: small objects, tuple hashing and dict stores, the kind of
  work the interpreter and the enumerator do;
* ``bigint``: the Chinese-remainder build and the remainders of a
  beta-coded sequence over ~1.6 kbit moduli, the kind of work the
  certificate codec does.

Neither imports anything from ``impsynth``.  Each takes about 10 ms and
checks its own result.  They stay fixed: changing one changes every
``ref`` figure divided by it.
"""

from __future__ import annotations

import math
import time

_PY_ITERATIONS = 15_000
_BIG_LENGTH = 28
_BIG_BASE = math.factorial(250)


class _Node:
    __slots__ = ("op", "kids", "key")

    def __init__(self, op: int, kids: tuple) -> None:
        self.op = op
        self.kids = kids
        self.key = hash((op, kids))


def python_loop() -> int:
    table: dict[int, _Node] = {}
    acc = 0
    for i in range(_PY_ITERATIONS):
        # int fields only: str hashes change from process to process
        node = _Node(i & 3, ((i & 31, i % 7), (i >> 5) & 63))
        table[node.key & 1023] = node
        acc = (acc + len(table) + (node.kids[0][1] ^ (i & 255))) & 0xFFFFFFFF
    return acc


def bigint_loop() -> int:
    a, modulus = 0, 1
    for i in range(_BIG_LENGTH):
        m = 1 + _BIG_BASE * (i + 1)
        a += modulus * (((i % 7 - a) * pow(modulus, -1, m)) % m)
        modulus *= m
    return sum(a % (1 + _BIG_BASE * (i + 1)) for i in range(_BIG_LENGTH))


# loop and the result it must return
REFERENCES = {
    "python": (python_loop, 16017586),
    "bigint": (bigint_loop, sum(i % 7 for i in range(_BIG_LENGTH))),
}


def time_reference(kind: str) -> float:
    """Seconds one run of the named loop takes now; its result is checked."""
    loop, expected = REFERENCES[kind]
    start = time.perf_counter()
    value = loop()
    elapsed = time.perf_counter() - start
    if value != expected:
        raise RuntimeError(f"{kind} reference loop returned {value}, not {expected}")
    return elapsed
