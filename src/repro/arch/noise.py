"""Per-architecture measurement-noise models.

The paper's Tables III/IV document a qualitative contrast between machines:

- **A64FX** repetitions of the same configuration are statistically
  indistinguishable (Wilcoxon p in [0.72, 0.86]) with essentially identical
  means — a quiet, stationary machine.
- **Milan** shows a large run-index effect: the first repetition is clearly
  slower (mean 0.135 s vs 0.109/0.111 s) and *every* pair differs
  significantly (p <= 3e-12) — first-touch/page-cache warm-up plus noisy
  shared fabric.
- **Skylake** means are flat (0.061/0.062/0.062) and the first pair is not
  significant (p = 0.19), but later pairs are (p ~ 1e-140) — a small,
  *consistent* drift that Wilcoxon detects across thousands of pairs even
  though it is invisible in the means.

:class:`NoiseModel` reproduces those three regimes with two ingredients:
a deterministic per-run-index drift factor and multiplicative lognormal
jitter; each machine in :mod:`repro.arch.machines` carries its calibrated
model as its ``noise`` field.  Noise streams are keyed by the full sample
identity so sweeps are reproducible regardless of execution order.

Every draw comes from the stream numpy's
``default_rng(SeedSequence([seed, run_index]))`` would give: the first
``standard_normal()`` of that generator.  Building the generator costs
far more than the one deviate taken from it, so
:meth:`NoiseModel.factors` draws a whole batch in numpy.  It derives
the batch's PCG64 states at once (:func:`pcg64_states` is the exact
reimplementation of numpy's seeding), then takes each state's first
raw output and numpy's one-word ziggurat step on it
(:func:`first_standard_normals`).  That step is exact integer work
plus one IEEE multiply, and it settles about 98.5% of the draws.  The
rest (all of strip 1, the wedges and the tail) load their state into
one generator the call owns, and numpy draws them.  The ziggurat
tables are numpy's own (:mod:`repro.arch.ziggurat`, regenerated by
``tools/ziggurat_tables.py``); they go with PCG64 when the noise moves
to a host-portable generator.

A batch pays for its seeds once per distinct value: the identity parts
a caller reuses across batches are encoded once (:func:`encode_parts`,
hashed by :func:`sample_seeds_encoded` after one shared prefix), and
:func:`pcg64_states` splits each distinct seed and run index into
entropy words once before assembling the batch's entropy in numpy.
Drift and jitter apply to the whole batch, and
:func:`noisy_runtimes` forms ``true * drift * jitter``.
"""

from __future__ import annotations

import functools
import hashlib
import operator
import struct
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from repro.arch.ziggurat import KI, WI
from repro.errors import ReproError

__all__ = [
    "NoiseModel",
    "encode_parts",
    "first_standard_normals",
    "noisy_runtimes",
    "pcg64_states",
    "sample_seed",
    "sample_seeds_encoded",
]


def encode_parts(parts: Iterable[object]) -> bytes:
    """The bytes :func:`sample_seed` hashes for ``parts``: each part's
    repr in UTF-8, followed by a unit separator."""
    return b"".join(repr(p).encode("utf-8") + b"\x1f" for p in parts)


def _digest(h: "hashlib._Hash") -> int:
    return struct.unpack("<Q", h.digest())[0]


def sample_seed(*parts: object) -> int:
    """Derive a stable 64-bit seed from arbitrary hashable identity parts.

    Uses blake2b over the repr of the parts, so seeds are stable across
    processes and Python hash randomization.
    """
    return _digest(hashlib.blake2b(encode_parts(parts), digest_size=8))


def sample_seeds_encoded(
    prefix: Sequence[object], suffixes: Iterable[bytes]
) -> list[int]:
    """``sample_seed(*prefix, *suffix_parts)`` for every suffix, given
    as ``encode_parts(suffix_parts)``: the shared ``prefix`` is hashed
    once, and each suffix costs one hash-state copy, update and
    digest."""
    base = hashlib.blake2b(encode_parts(prefix), digest_size=8)
    out = []
    for suffix in suffixes:
        h = base.copy()
        h.update(suffix)
        out.append(_digest(h))
    return out


# numpy.random.SeedSequence's mixing constants (numpy/random/bit_generator.pyx).
_MASK32 = 0xFFFF_FFFF
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16
#: For each pool word, the indices of the other pool words.
_OTHER_WORDS = [np.array([i for i in range(_POOL_SIZE) if i != i_src])
                for i_src in range(_POOL_SIZE)]
# PCG64's 128-bit LCG multiplier (PCG_DEFAULT_MULTIPLIER_128), as its
# high and low 64-bit limbs.
_PCG_MULT_HI = np.uint64(2549297995355413924)
_PCG_MULT_LO = np.uint64(4865540595714422341)
# numpy's normal ziggurat tables, and the 52-bit magnitude mask of its
# one-word step.
_ZIG_KI = np.array(KI, dtype=np.uint64)
_ZIG_WI = np.array(WI, dtype=np.float64)
_RABS_MASK = np.uint64(2**52 - 1)


@functools.cache
def _hash_consts(init: int, mult: int, steps: int) -> np.ndarray:
    """SeedSequence's running hash constant over ``steps`` hashmix steps:
    step ``k`` xors with entry ``k`` and multiplies by entry ``k + 1``.
    A column, so it broadcasts over a batch row by row.  Computed once
    per step count and shared read-only."""
    consts = [init]
    for _ in range(steps):
        consts.append((consts[-1] * mult) & _MASK32)
    column = np.array(consts, dtype=np.uint32)[:, None]
    column.flags.writeable = False
    return column


def _hashmix(values: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's ``hashmix`` of each row of ``values`` with
    consecutive steps of the running constant."""
    values = (values ^ consts[:-1]) * consts[1:]
    return values ^ (values >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return result ^ (result >> _XSHIFT)


def _distinct(
    values: Sequence[int], what: str, error: type[Exception]
) -> tuple[list[int], np.ndarray]:
    """The distinct values of ``values`` in order of first appearance,
    as Python ints of any width, and each value's position among them.
    A negative value raises ``error`` naming it."""
    if isinstance(values, np.ndarray):
        values = values.tolist()
    position = {v: k for k, v in enumerate(dict.fromkeys(values))}
    distinct = list(map(operator.index, position))
    if distinct and min(distinct) < 0:
        raise error(f"{what} must be >= 0, got {min(distinct)}")
    rows = np.fromiter(map(position.__getitem__, values), dtype=np.intp,
                       count=len(values))
    return distinct, rows


def _word_rows(
    distinct: list[int], rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Each value of a :func:`_distinct` split as numpy's
    ``_int_to_uint32_array`` splits it (its little-endian 32-bit words,
    ``[0]`` for zero) in a zero-padded ``uint32`` row, and each row's
    word count.

    Every distinct value is converted once; the rows are gathered from
    those in numpy.
    """
    bits = np.fromiter(map(int.bit_length, distinct), dtype=np.int64,
                       count=len(distinct))
    counts = np.maximum(1, -(-bits // 32))
    width = int(counts.max())
    table = np.frombuffer(b"".join(
        map(int.to_bytes, distinct, repeat(4 * width), repeat("little"))
    ), dtype="<u4").reshape(len(distinct), width)
    return table[rows], counts[rows]


def _mul_hi(a: np.ndarray, b: np.uint64) -> np.ndarray:
    """The high 64 bits of each 128-bit product ``a * b``, from 32-bit
    partial products that cannot overflow ``uint64``."""
    a0, a1 = a & np.uint64(_MASK32), a >> np.uint64(32)
    b0, b1 = b & np.uint64(_MASK32), b >> np.uint64(32)
    p01, p10 = a0 * b1, a1 * b0
    mid = ((a0 * b0 >> np.uint64(32)) + (p01 & np.uint64(_MASK32))
           + (p10 & np.uint64(_MASK32)))
    return (a1 * b1 + (p01 >> np.uint64(32)) + (p10 >> np.uint64(32))
            + (mid >> np.uint64(32)))


def _pcg64_seed(
    seeds: tuple[list[int], np.ndarray], runs: tuple[list[int], np.ndarray]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The PCG64 ``state`` and ``inc`` of every pair as ``uint64`` limbs
    ``(state_lo, state_hi, inc_lo, inc_hi)``, for seeds and run indices
    given as their :func:`_distinct`."""
    seed_words, seed_lengths = _word_rows(*seeds)
    run_words, run_lengths = _word_rows(*runs)
    lengths = seed_lengths + run_lengths
    width = max(_POOL_SIZE, int(lengths.max()))
    # A run index's words start right after its seed's, over zero
    # padding; its own padding lands past the pair's entropy.
    n, n_seed, n_run = len(lengths), seed_words.shape[1], run_words.shape[1]
    entropy = np.zeros((n, max(width, n_seed + n_run)), dtype=np.uint32)
    entropy[:, :n_seed] = seed_words
    entropy[np.arange(n)[:, None],
            seed_lengths[:, None] + np.arange(n_run)] = run_words
    entropy = entropy[:, :width].T

    # SeedSequence.mix_entropy.  Words past a row's entropy hash as zero,
    # so zero padding up to the pool size is exact.
    consts = _hash_consts(
        _INIT_A, _MULT_A, _POOL_SIZE ** 2 + _POOL_SIZE * (width - _POOL_SIZE)
    )
    pool = _hashmix(entropy[:_POOL_SIZE], consts[:_POOL_SIZE + 1])
    step = _POOL_SIZE
    for i_src, dst in enumerate(_OTHER_WORDS):
        # The other words each mix in pool[i_src], which none of them
        # changes, so their sequential steps run as one.
        mixed = _hashmix(pool[i_src], consts[step:step + _POOL_SIZE])
        pool[dst] = _mix(pool[dst], mixed)
        step += _POOL_SIZE - 1
    # Entropy beyond the pool mixes into every pool word, only for the
    # rows that have it.
    for i_src in range(_POOL_SIZE, width):
        mixed = _hashmix(entropy[i_src], consts[step:step + _POOL_SIZE + 1])
        pool = np.where(lengths > i_src, _mix(pool, mixed), pool)
        step += _POOL_SIZE

    # SeedSequence.generate_state(4, np.uint64): eight uint32 words
    # cycled from the pool, paired little-endian into four uint64s.
    words = _hashmix(
        np.concatenate([pool, pool]),
        _hash_consts(_INIT_B, _MULT_B, 2 * _POOL_SIZE),
    ).astype(np.uint64)
    s_hi, s_lo, q_hi, q_lo = words[0::2] | (words[1::2] << np.uint64(32))

    # pcg64_set_seed -> pcg_setseq_128_srandom_r: state = 0, inc =
    # (initseq << 1) | 1, step, state += initstate, step.  The first step
    # of the zero state leaves inc.
    one = np.uint64(1)
    inc_hi = (q_hi << one) | (q_lo >> np.uint64(63))
    inc_lo = (q_lo << one) | one
    a_lo = inc_lo + s_lo
    a_hi = inc_hi + s_hi + (a_lo < inc_lo)
    return (*_step(a_lo, a_hi, inc_lo, inc_hi), inc_lo, inc_hi)


def _step(
    lo: np.ndarray, hi: np.ndarray, inc_lo: np.ndarray, inc_hi: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """PCG64's LCG step, ``state * MULT + inc`` mod 2**128, in 64-bit
    limbs with wrapping arithmetic, carrying by hand: a sum's low limb
    wraps iff it ends below an addend."""
    p_lo = lo * _PCG_MULT_LO
    p_hi = (_mul_hi(lo, _PCG_MULT_LO) + lo * _PCG_MULT_HI
            + hi * _PCG_MULT_LO)
    state_lo = p_lo + inc_lo
    return state_lo, p_hi + inc_hi + (state_lo < p_lo)


def _as_ints(*limbs: np.ndarray) -> list[int]:
    """Python ints for the ``.state`` setter from ``(lo, hi)`` limb
    pairs: per row, each pair's 128-bit value, flat.  Each value's
    limbs, little-endian, are read as one int."""
    values = np.stack(limbs, axis=1).astype("<u8", copy=False)
    return list(map(int.from_bytes, values.view("V16").ravel().tolist(),
                    repeat("little")))


def first_standard_normals(
    state_lo: np.ndarray, state_hi: np.ndarray,
    inc_lo: np.ndarray, inc_hi: np.ndarray,
) -> np.ndarray:
    """The first ``standard_normal()`` of a ``PCG64`` at each
    ``(state, inc)``, given as ``uint64`` limbs.

    PCG64 steps before its output, so the first raw output ``r`` is the
    XSL-RR output of one step: ``rotr64(hi ^ lo, hi >> 58)``.  numpy's
    ziggurat then takes strip ``idx = r & 0xff``, sign bit 8 and the
    52-bit magnitude ``rabs = (r >> 9) & (2**52 - 1)``, and accepts
    ``±(rabs * wi[idx])`` when ``rabs < ki[idx]``: integer work and one
    IEEE multiply, done here over the batch.  Draws the test rejects
    (all of strip 1, where ``ki[1] == 0``, plus wedge and tail
    rejections) need more raw outputs and ``exp``/``log``.  Only they
    load their state into one generator the call owns, and numpy draws
    them.
    """
    lo, hi = _step(state_lo, state_hi, inc_lo, inc_hi)
    x = hi ^ lo
    rot = hi >> np.uint64(58)
    r = (x >> rot) | (x << ((np.uint64(64) - rot) & np.uint64(63)))
    idx = (r & np.uint64(0xFF)).astype(np.intp)
    rabs = (r >> np.uint64(9)) & _RABS_MASK
    z = rabs.astype(np.float64) * _ZIG_WI[idx]
    np.negative(z, out=z, where=(r & np.uint64(0x100)).astype(bool))
    slow = np.flatnonzero(rabs >= _ZIG_KI[idx])
    if len(slow):
        flat = iter(_as_ints(state_lo[slow], state_hi[slow],
                             inc_lo[slow], inc_hi[slow]))
        bit_generator = np.random.PCG64(0)
        standard_normal = np.random.Generator(bit_generator).standard_normal
        # The .state setter copies the dict's values, so one dict serves
        # every draw.
        pcg_state = {"state": 0, "inc": 0}
        state = {"bit_generator": "PCG64", "state": pcg_state,
                 "has_uint32": 0, "uinteger": 0}
        for i in slow.tolist():
            pcg_state["state"], pcg_state["inc"] = next(flat), next(flat)
            bit_generator.state = state
            z[i] = standard_normal()
    return z


def pcg64_states(
    seeds: Sequence[int], run_indices: Sequence[int]
) -> list[tuple[int, int]]:
    """The ``(state, inc)`` pair of
    ``PCG64(SeedSequence([seed, run_index]))`` for every pair.

    Each pair's entropy is its seed's 32-bit words followed by its run
    index's, assembled in numpy from the words of each distinct seed and
    run index.  ``SeedSequence``'s pool mixing and
    ``generate_state(4, uint64)`` run vectorized over the batch in
    wrapping ``uint32`` arithmetic, and PCG64's 128-bit seeding step
    (``pcg64_set_seed``) in wrapping ``uint64`` limbs; Python ints are
    built only for the result.  Both inputs must be of equal length and
    non-negative: a negative value raises ``ValueError`` naming it, as
    ``SeedSequence`` does.
    """
    if len(seeds) != len(run_indices):
        raise ValueError(
            f"{len(seeds)} seeds but {len(run_indices)} run indices"
        )
    if not len(seeds):
        return []
    flat = iter(_as_ints(*_pcg64_seed(
        _distinct(seeds, "seed", ValueError),
        _distinct(run_indices, "run index", ValueError),
    )))
    return list(zip(flat, flat))


@dataclass(frozen=True)
class NoiseModel:
    """Multiplicative measurement noise for one architecture, carried as
    :attr:`~repro.arch.topology.MachineTopology.noise`.

    ``observed = true * drift[run_index] * exp(sigma * N(0,1))``

    Attributes
    ----------
    sigma:
        Lognormal jitter scale (coefficient of variation for small sigma).
    drift:
        Per-run-index deterministic multipliers; run indices beyond the
        tuple reuse the final entry (steady state).
    """

    sigma: float
    drift: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.sigma < 0:
            raise ReproError(f"noise sigma must be >= 0, got {self.sigma}")
        if not self.drift or any(d <= 0 for d in self.drift):
            raise ReproError("drift factors must be positive and non-empty")

    def drift_factor(self, run_index: int) -> float:
        """Deterministic drift for a repetition index."""
        if run_index < 0:
            raise ReproError(f"run index must be >= 0, got {run_index}")
        if run_index < len(self.drift):
            return self.drift[run_index]
        return self.drift[-1]

    def apply(self, true_runtime: float, run_index: int, seed: int) -> float:
        """One noisy observation of ``true_runtime``."""
        return self.apply_many((true_runtime,), (run_index,), (seed,))[0]

    def apply_many(
        self,
        true_runtimes: Sequence[float],
        run_indices: Sequence[int],
        seeds: Sequence[int],
    ) -> list[float]:
        """One noisy observation per ``(true_runtime, run_index, seed)``:
        :func:`noisy_runtimes` over :meth:`factors`."""
        if not len(run_indices) == len(seeds) == len(true_runtimes):
            raise ValueError(
                f"{len(true_runtimes)} true runtimes, {len(run_indices)} "
                f"run indices and {len(seeds)} seeds"
            )
        return noisy_runtimes(true_runtimes,
                              *self.factors(run_indices, seeds)).tolist()

    def factors(
        self, run_indices: Sequence[int], seeds: Sequence[int]
    ) -> tuple[np.ndarray, np.ndarray]:
        """The ``(drift, jitter)`` factors of one draw per
        ``(run_index, seed)``, as two float64 arrays.

        Draw ``i`` takes the first standard normal of the stream of
        ``default_rng(SeedSequence([seeds[i], run_indices[i]]))``
        (:func:`first_standard_normals`); seeding, the draws, drift and
        jitter run over the batch in numpy.
        """
        if len(run_indices) != len(seeds):
            raise ValueError(
                f"{len(run_indices)} run indices but {len(seeds)} seeds"
            )
        runs = _distinct(run_indices, "run index", ReproError)
        seed_values = _distinct(seeds, "noise seed", ReproError)
        if not len(seeds):
            return np.empty(0), np.empty(0)
        z = first_standard_normals(*_pcg64_seed(seed_values, runs))
        # One np.exp over the batch rounds as a per-draw np.exp does (a
        # test pins it per model); math.exp does not.
        jitter = np.exp(self.sigma * z)
        run_values, run_rows = runs
        drift = np.array([self.drift_factor(r) for r in run_values])[run_rows]
        return drift, jitter


def noisy_runtimes(
    true_runtimes: Sequence[float] | np.ndarray,
    drift: np.ndarray,
    jitter: np.ndarray,
) -> np.ndarray:
    """``true * drift * jitter`` per draw, multiplied in that order, for
    true runtimes that must all be > 0 (``nan`` is rejected too)."""
    trues = np.asarray(true_runtimes, dtype=np.float64)
    bad = ~(trues > 0)  # nan included
    if bad.any():
        raise ReproError(f"true runtime must be > 0, got {trues[bad][0]}")
    return trues * drift * jitter

