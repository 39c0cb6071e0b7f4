"""Fixed reference work that gauges the speed of the host around each cycle.

On a shared host the speed of a core drifts by a quarter or more, in phases
that last from seconds to minutes, so a run's median wall time says as much
about its neighbours as about the program. The reference work here uses
numpy and the standard library only, never `hydrostate`, so its time moves
with the host and not with the code under test. It runs between cycles; a
cycle's time divided by the median reference time of the gaps just before
and just after it is the cycle time in reference units, which keeps the
program's cost and drops most of the host's drift.

The drift hits interpreter-bound work and LAPACK work of different sizes
unequally, so each workload names reference work of its own kind:
`("python",)` for thousands of tiny systems, `("dense", order, rounds)` for
normal equations of about that order.
"""

import json
import statistics
import time

import numpy as np

REPEATS = 3  # samples per gap; their median resists a single slow sample


def python_work() -> float:
    """Dict and float arithmetic, 3 x 3 solves and some JSON, about 55 ms."""
    a = np.array([[4.0, 1.0, 0.5], [1.0, 3.0, 0.2], [0.5, 0.2, 2.0]])
    acc, table = 0.0, {}
    for i in range(1800):
        x = np.linalg.solve(a, np.array([1.0 + i, 2.0, 3.0]))
        acc += float(x @ x) ** 0.5
        for j in range(40):
            key = (i * 31 + j) % 97
            table[key] = table.get(key, 0.0) * 0.5 + j / (1.0 + i)
            acc += abs(table[key] - j)
        if i % 300 == 0:
            acc += len(json.dumps(sorted(table.items())[:20]))
    return acc


class DenseWork:
    """`rounds` Cholesky factorizations and 100-column solves of a fixed SPD
    matrix of the given order. The matrices are made once, so only the
    LAPACK work is timed."""

    def __init__(self, order: int, rounds: int):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((order, order))
        self.s = a.T @ a + order * np.eye(order)
        self.rhs = rng.standard_normal((order, 100))
        self.rounds = rounds

    def __call__(self) -> float:
        acc = 0.0
        for _ in range(self.rounds):
            acc += np.linalg.cholesky(self.s)[0, 0] + np.linalg.solve(self.s, self.rhs)[0, 0]
        return float(acc)


KINDS = {"python": lambda: python_work, "dense": DenseWork}


class Reference:
    """Samples of one workload's reference work, one list per gap between
    cycles."""

    def __init__(self, spec):
        kind, *args = spec
        self.work = KINDS[kind](*args)
        self.work()  # the first LAPACK call pays its own set-up
        self.gaps = []

    def sample(self) -> float:
        """Time REPEATS runs of the work into a new gap; returns the seconds
        spent."""
        times = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            self.work()
            times.append(time.perf_counter() - start)
        self.gaps.append(times)
        return sum(times)

    def ratios(self, times) -> list[float]:
        """Each cycle's time over the median reference time of the gaps
        before and after it; cycle i runs between gaps i and i + 1."""
        return [t / statistics.median(self.gaps[i] + self.gaps[i + 1])
                for i, t in enumerate(times) if t and i + 1 < len(self.gaps)]

    @property
    def seconds(self) -> float:
        """Median time of one run of the work over the whole run."""
        return statistics.median(t for gap in self.gaps for t in gap)
