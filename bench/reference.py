"""A fixed reference computation that measures the host's current speed.

The host's speed drifts by up to half, in stretches from seconds to
minutes, and two runs of the same pass can differ by as much.  The worker
times this computation between queries during each pass, and the benchmark
divides each query's time by the mean reference time of its pass.  The
computation is Gaussian elimination over ``Fraction`` on sparse ``dict``
rows, the same kind of work as the library's own, but it uses no code from
``diffhom``, so no change to the library can move it.
"""

import random
import time
from fractions import Fraction

_rng = random.Random(0)
_ROWS = [{_rng.randrange(40): Fraction(_rng.randint(1, 9) * _rng.choice((-1, 1)),
                                        _rng.randint(1, 5))
          for _ in range(5)}
         for _ in range(40)]


def _eliminate() -> None:
    pivots = {}
    for row in _ROWS:
        row = dict(row)
        while row:
            col = min(row)
            if col not in pivots:
                inv = 1 / row[col]
                pivots[col] = {k: v * inv for k, v in row.items()}
                break
            factor = row[col]
            for k, v in pivots[col].items():
                value = row.get(k, 0) - factor * v
                if value:
                    row[k] = value
                else:
                    row.pop(k, None)


def reference_s() -> float:
    """Wall time of one reference elimination, in seconds."""
    start = time.perf_counter()
    _eliminate()
    return time.perf_counter() - start
