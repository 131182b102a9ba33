"""Fixed reference work, the yardstick of the machine's speed.

Run as a process of its own, like an `hdx` job: interpreter start-up, the
numpy import, pure-Python bit arithmetic and a small dense eigensolve, the
same mix of work the jobs do.  It never imports hdxwalk, so no change to the
program moves its time; only the machine's speed does.
"""

import numpy as np


def work() -> int:
    acc = 0
    for mask in range(1, 1 << 20):
        acc += (mask & -mask).bit_length() ^ mask.bit_count()
    a = np.add.outer(np.arange(200.0), np.arange(200.0)) % 7.0
    acc += int(np.linalg.eigvalsh(a + a.T)[-1])
    return acc


if __name__ == "__main__":
    work()
