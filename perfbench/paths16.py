"""Source generator for the ``paths16`` workload.

Each pair is one function of a single ``i16`` input with ``k`` sequential
``if`` guards, so each version has ``2**k`` paths.  Every guard is a
threshold test that adds a non-zero amount to an accumulator, and the
patched copy moves the threshold of exactly one guard.  The two versions
therefore differ exactly on the inputs where that guard flips, which gives
an answer the benchmark knows without asking the program.  The program
only ever sees the generated minilang text.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

DOMAIN = 1 << 16
THRESHOLD_SPAN = 28000  # moved thresholds stay inside i16
MOVE = 1500  # how far the patch moves one threshold


@dataclass(frozen=True)
class Guard:
    op: str  # ">" or "<"
    threshold: int
    amount: int

    def statement(self) -> str:
        return f"    if (x {self.op} {self.threshold}) {{ acc = acc + {self.amount}; }}"


@dataclass(frozen=True)
class PathsPair:
    name: str
    k: int
    paths: int
    original: str
    patched: str
    diverging: int  # inputs on which the two versions return different values

    @property
    def eq_count(self) -> int:
        return DOMAIN - self.diverging


def _guards(rng: random.Random, k: int) -> list[Guard]:
    """k guards at evenly spaced thresholds, with amounts drawn from rng.

    The thresholds, their order and comparison directions, and the moved
    guard are fixed by k; only the amounts are drawn, so the cost of a pair
    depends on k and hardly on the draw.
    """
    step = 2 * THRESHOLD_SPAN // k
    return [
        Guard(">" if i % 2 == 0 else "<", -THRESHOLD_SPAN + step * i + step // 2,
              rng.randint(1, 999))
        for i in range(k)
    ]


def _source(name: str, start: int, guards: list[Guard]) -> str:
    lines = [f"fn {name}(x: i16) -> i16 {{", f"    let acc: i16 = {start};"]
    lines += [g.statement() for g in guards]
    lines += ["    return acc;", "}", ""]
    return "\n".join(lines)


def generate_pair(rng: random.Random, k: int, index: int) -> PathsPair:
    guards = _guards(rng, k)
    start = rng.randint(-1000, 1000)
    j = k // 2  # the patch moves the guard with the middle threshold
    patched = list(guards)
    patched[j] = Guard(guards[j].op, guards[j].threshold + MOVE, guards[j].amount)
    name = f"p16_{index}"
    header = f"// paths16 pair {index}: k={k} guards, {1 << k} paths, guard {j} patched\n"
    return PathsPair(
        name=name,
        k=k,
        paths=1 << k,
        original=header + _source(name, start, guards),
        patched=header + _source(name, start, patched),
        diverging=MOVE,
    )
