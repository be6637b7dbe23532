"""Measurement noise for the execution simulator.

Real GPU timings deviate from any analytical model in two ways, and the
simulator reproduces both:

* a **fixed effect** per (matrix, format, device, precision): the
  hardware interacts with each structure in ways no small model (or
  small feature set!) fully captures — TLB behaviour, partition-camping,
  replay rates.  This is a deterministic lognormal multiplier seeded
  from the matrix digest, so it is *stable across repetitions* (the
  paper averages 50 runs, which removes jitter but not structure
  effects) yet unpredictable from the extracted features.  Its spread,
  ``sigma_structural``, is the knob that keeps format-selection accuracy
  in the realistic high-80s instead of saturating.  Each cell's normal
  is the first draw of ``np.random.default_rng(raw)``, ``raw`` being a
  64-bit blake2b hash of the cell; :meth:`NoiseModel.structural_factors`
  reproduces that seeding for a whole row of cells at once.
* per-run **jitter**: clock/DVFS and scheduling noise, a lognormal
  multiplier drawn fresh every repetition from the executor's RNG.
"""

from __future__ import annotations

import hashlib
import threading
from typing import Sequence

import numpy as np

__all__ = ["NoiseModel"]

# numpy's SeedSequence(raw) for a raw seed below 2**64 and its PCG64
# seeding, reproduced over many seeds at once.  The entropy is raw's two
# little-endian uint32 words, zero-filled to the pool of four (a seed
# below 2**32 has one word, and SeedSequence hashes the missing ones as
# 0).  Each hash multiplies its constant by a fixed factor whatever the
# data, so the constants of the 16 hashes of the pool mix and the 8 of
# ``generate_state`` are fixed too: they are precomputed below as
# ``(xor, multiplier)`` column pairs.
_M32 = 0xFFFFFFFF
_POOL = 4


def _hash_constants(init: int, mult: int, n: int):
    xor, nxt, c = [], [], init
    for _ in range(n):
        xor.append(c)
        c = (c * mult) & _M32
        nxt.append(c)
    return (np.array(xor, dtype=np.uint32)[:, None],
            np.array(nxt, dtype=np.uint32)[:, None])


_MIX_XOR, _MIX_MUL = _hash_constants(0x43B0D7E5, 0x931E8875, _POOL * _POOL)
_GEN_XOR, _GEN_MUL = _hash_constants(0x8B51F9DD, 0x58F38DED, 2 * _POOL)
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_SHIFT = np.uint32(16)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M128 = (1 << 128) - 1


def _hashmix(value: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    value = (value ^ xor) * mul
    value ^= value >> _SHIFT
    return value


#: Rows of the pool each source word mixes into, and the pool rows
#: ``generate_state`` cycles through for its eight words.
_MIX_DST = [np.array([i for i in range(_POOL) if i != src]) for src in range(_POOL)]
_CYCLE = np.arange(2 * _POOL) % _POOL
_U64 = np.uint64


def _pcg64_states(raws: Sequence[int]) -> list:
    """PCG64 ``(state, inc)`` of ``np.random.default_rng(raw)`` per raw."""
    raw = np.array(raws, dtype=_U64)
    pool = np.zeros((_POOL, raw.size), dtype=np.uint32)
    pool[0] = raw & _U64(_M32)
    pool[1] = raw >> _U64(32)
    # SeedSequence.mix_entropy: hash each word, then mix each word into
    # the other three.  The three updates of one source word read only
    # their own old value, so they run as one (3, cells) block.
    pool = _hashmix(pool, _MIX_XOR[:_POOL], _MIX_MUL[:_POOL])
    for src, dst in enumerate(_MIX_DST):
        k = _POOL + 3 * src
        h = _hashmix(pool[src], _MIX_XOR[k:k + 3], _MIX_MUL[k:k + 3])
        r = _MIX_L * pool[dst] - _MIX_R * h
        r ^= r >> _SHIFT
        pool[dst] = r
    # SeedSequence.generate_state(4, np.uint64): eight hashed words of
    # the cycled pool, paired little-endian into four uint64: the seed's
    # high and low words, then the increment's.
    words = _hashmix(pool[_CYCLE], _GEN_XOR, _GEN_MUL).astype(_U64)
    u64 = words[0::2] | (words[1::2] << _U64(32))
    states = []
    for s_hi, s_lo, i_hi, i_lo in zip(*u64.tolist()):
        # pcg64_set_seed on 128-bit words: state 0, one step, add the
        # seed, one step.
        inc = (((i_hi << 64) | i_lo) << 1 | 1) & _M128
        state = ((inc + ((s_hi << 64) | s_lo)) * _PCG_MULT + inc) & _M128
        states.append((state, inc))
    return states


_local = threading.local()


def _first_normals(raws: Sequence[int]) -> np.ndarray:
    """``np.random.default_rng(raw).standard_normal()`` of every raw.

    Each thread keeps one PCG64, sets it to each raw's seeded state and
    draws once; a ``Generator`` carries no state of its own between
    normals, so the draw is the fresh generator's.
    """
    try:
        bitgen, draw = _local.generator
    except AttributeError:
        bitgen = np.random.PCG64(0)
        draw = np.random.Generator(bitgen).standard_normal
        _local.generator = bitgen, draw
    out = []
    for state, inc in _pcg64_states(raws):
        bitgen.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        out.append(draw())
    return np.array(out, dtype=np.float64)


class NoiseModel:
    """Multiplicative lognormal noise with a seeded structural component.

    Parameters
    ----------
    sigma_structural:
        Log-std-dev of the per-(matrix, format, device, precision)
        fixed effect.  ``0`` disables it (fully deterministic labels).
    sigma_run:
        Log-std-dev of the per-repetition jitter.
    seed:
        Base seed mixed into the fixed-effect hash, so independent
        experiments can draw independent "hardware instances".
    """

    def __init__(
        self,
        sigma_structural: float = 0.02,
        sigma_run: float = 0.03,
        seed: int = 0,
    ) -> None:
        if sigma_structural < 0 or sigma_run < 0:
            raise ValueError("noise sigmas must be non-negative")
        self.sigma_structural = float(sigma_structural)
        self.sigma_run = float(sigma_run)
        self.seed = int(seed)

    # -- fixed effect ---------------------------------------------------

    def structural_factor(
        self, digest: bytes, fmt: str, device_name: str, precision: str
    ) -> float:
        """Deterministic lognormal multiplier for one configuration.

        The same (matrix, format, device, precision) always maps to the
        same factor; the mean of the multiplier is 1 (the lognormal is
        centred by ``-sigma^2 / 2``).  The batch of one of
        :meth:`structural_factors`.
        """
        return float(self.structural_factors(digest, (fmt,), device_name, precision)[0])

    def structural_factors(
        self,
        digest: bytes,
        fmts: Sequence[str],
        device_name: str,
        precision: str,
    ) -> np.ndarray:
        """:meth:`structural_factor` of every format in ``fmts``, in order.

        Each cell's normal is the first ``standard_normal()`` of
        ``np.random.default_rng(raw)``, ``raw`` being the cell's 64-bit
        blake2b hash of (digest, format, device, precision, seed).
        Building a generator per cell costs ~15-20 µs, mostly
        SeedSequence and PCG64 set-up, so this method does that set-up
        itself: the hashes share the digest prefix, SeedSequence's
        uint32 hash and mix run over all cells as arrays, PCG64's
        seeding runs in Python ints, and one reused generator draws each
        normal after its state is set.  Every step is numpy's own
        integer arithmetic, and the lognormal is the same float
        expression, so each factor is bit for bit the per-cell draw's.
        """
        if self.sigma_structural == 0.0:
            return np.ones(len(fmts))
        prefix = hashlib.blake2b(digest, digest_size=8)
        suffix = (
            device_name.encode()
            + precision.encode()
            + self.seed.to_bytes(8, "little", signed=True)
        )
        raws = []
        for fmt in fmts:
            h = prefix.copy()
            h.update(fmt.encode() + suffix)
            raws.append(int.from_bytes(h.digest(), "little"))
        s = self.sigma_structural
        return np.exp(s * _first_normals(raws) - 0.5 * s * s)

    # -- per-run jitter ---------------------------------------------------

    def run_factors(self, rng: np.random.Generator, reps: int) -> np.ndarray:
        """Fresh jitter multipliers for ``reps`` repetitions (mean 1)."""
        if self.sigma_run == 0.0:
            return np.ones(reps)
        s = self.sigma_run
        return np.exp(s * rng.standard_normal(reps) - 0.5 * s * s)
