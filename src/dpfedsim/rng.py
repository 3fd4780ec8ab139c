"""Counter-based random streams for reproducible parallel simulation.

Every source of randomness in the simulator is a pure function of a derived
stream key, never of call order.  Keys are built from integer labels such as
(seed, stream tag, client id, round, epoch, batch) and fed to a Philox
counter-based generator, so concurrently simulated clients draw from disjoint
streams and a run is bit-reproducible regardless of scheduling.

Gaussian variates are produced by an explicit Box-Muller transform over
Philox uniforms rather than the generator's built-in ziggurat sampler, which
pins the exact output sequence to this module instead of the numpy version.
"""

from __future__ import annotations

import math

import numpy as np

# Stream tags keep unrelated consumers of the same base seed apart.
STREAM_INIT = 1
STREAM_SHUFFLE = 2
STREAM_NOISE = 3
STREAM_SELECT = 4
STREAM_PARTITION = 5
STREAM_CLIENT = 6
STREAM_PUBLIC_SPLIT = 7
STREAM_DATASET = 8
STREAM_SWEEP = 9
STREAM_POISSON = 10

_MASK64 = (1 << 64) - 1


def derive_seed(*parts: int) -> int:
    """Collapse a tuple of integer labels into a 128-bit stream key.

    The mapping is stable across processes and platforms (it relies on
    numpy's SeedSequence hashing, which is specified and versioned).
    Distinct label tuples give independent streams with overwhelming
    probability.
    """
    entropy = tuple(int(p) & _MASK64 for p in parts)
    ss = np.random.SeedSequence(entropy)
    words = ss.generate_state(2, np.uint64)
    return int(words[0]) | (int(words[1]) << 64)


def generator(key: int) -> np.random.Generator:
    """Philox generator positioned at the start of stream ``key``."""
    return np.random.Generator(np.random.Philox(key=key))


def work_buffer(work: dict | None, key, shape: tuple[int, ...]) -> np.ndarray:
    """The float64 buffer ``work[key]``, a C-order view of ``shape`` onto the
    front of one flat allocation per key.

    A workspace is a caller-owned dict of buffers.  The same array comes back
    while the shape is unchanged; another shape gets a new view, and the
    allocation grows only when the shape needs more values than it holds.
    With no workspace (None) every call gets a fresh array.
    """
    if work is None:
        return np.empty(shape)
    buf = work.get(key)
    if buf is None or buf.shape != shape:
        size = math.prod(shape)
        flat = buf.base if buf is not None and buf.base.size >= size else np.empty(size)
        buf = work[key] = flat[:size].reshape(shape)
    return buf


def standard_normal(key: int, n: int, work: dict | None = None) -> np.ndarray:
    """Draw ``n`` iid standard normals from stream ``key`` via Box-Muller.

    The draw is ``box_muller(generator(key), n, work)``.
    """
    return box_muller(generator(key), n, work)


def box_muller(gen: np.random.Generator, n: int, work: dict | None = None) -> np.ndarray:
    """Turn ``n`` pairs' worth of ``gen``'s uniforms into ``n`` standard normals.

    Uses u1 mapped to (0, 1] so the log never sees zero.  The uniforms and
    the result live in the workspace ``work`` (fresh by default); a reused
    workspace gives the bytes of a fresh one, and its result is overwritten
    by the next draw into it.
    """
    if n == 0:
        return np.zeros(0)
    pairs = (n + 1) // 2
    r, theta = gen.random(out=work_buffer(work, "uniforms", (2, pairs)))
    # r = sqrt(-2 log(1 - u1)) and theta = 2 pi u2, each in place
    np.sqrt(np.multiply(np.log1p(np.negative(r, out=r), out=r), -2.0, out=r), out=r)
    np.multiply(theta, 2.0 * np.pi, out=theta)
    z = work_buffer(work, "normals", (2, pairs))
    np.multiply(np.cos(theta, out=z[0]), r, out=z[0])
    np.multiply(np.sin(theta, out=z[1]), r, out=z[1])
    return z.reshape(-1)[:n]
