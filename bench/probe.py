"""Set-up probe, run in a fresh interpreter: the work before the first warm operation.

It imports bernmass and, for solve-stream, makes the first (cold) solve at
every (method, degree) pair of the stream.  A cold solve costs the same
whatever b is, so b here is plain uniform noise, with no reference matrix
built for it.  run.py times the whole process.

    python3 bench/probe.py WORKLOAD SEED
"""

import sys

import bernmass

if sys.argv[1] == "solve-stream":
    import numpy as np

    from inputs import METHODS, STREAM_DEGREES

    rng = np.random.default_rng(int(sys.argv[2]))
    for n in STREAM_DEGREES:
        b = rng.uniform(-0.5, 0.5, n + 1)
        for m in METHODS:
            bernmass.solve(m, n, b)
