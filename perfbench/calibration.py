"""Calibration job: a fixed piece of work whose wall time measures the host's
current speed.

run.py runs it as a child process before and after each timed command and
reports the command's wall time in units of this job's. The shared host that
the benchmark was written on runs the same command anywhere from 0.8 s to
1.5 s, in phases that last minutes, so a run of any length sees one phase;
over 20 s windows the quartile spread of the command's raw median was 18%,
and 4.5% after dividing by this job's time measured next to it.

Like a radmm command, the job starts the interpreter, imports numpy, and runs
a loop of small numpy products and Python object churn. It imports nothing
from radmm, so a change to radmm does not change it.
"""

import numpy as np

ROUNDS = 40_000


def job(rounds: int) -> float:
    a = np.arange(16.0).reshape(4, 4) / 40.0
    v = np.ones(4)
    acc = 0.0
    for i in range(rounds):
        v = a @ v + 1.0
        d = {"k": i, "v": v}
        acc += float(d["v"][0]) * 1e-9 + len(str(i))
    return acc


if __name__ == "__main__":
    job(ROUNDS)
