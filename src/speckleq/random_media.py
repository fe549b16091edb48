"""Random scattering-lens realizations for a single focus (output) mode.

One output mode of a strongly scattering slab couples to M transmission
channels and M reflection channels.  Raw coefficients are drawn as i.i.d.
circular complex Gaussians with E|t|^2 = 1/(M s) and E|r|^2 = (1 - 1/s)/M
(amplitudes Rayleigh, phases uniform), then the whole 2M-vector is rescaled
by one common factor so that sum|t|^2 + sum|r|^2 = 1 holds exactly.  Flux
conservation must be exact because the downstream Gaussian-oracle
equivalence checks rely on it; the price is an O(1/M) distortion of the
marginal means.

Wavefront shaping is represented implicitly: shaped propagation and both
oracles use only the amplitudes |t| and |r|, so channel phases are never
formed.

All operations are pure functions of their arguments; per-trial seeds for
ensemble work are derived statelessly from (master seed, trial index), so
any trial can be redrawn on its own.  ``draw_ensemble`` is the one way to
draw an ensemble (the sweeps' and ``oracle-check``'s); ``sample_realization``
draws one trial from a given seed with the same layout and channel weights.

The stream is numpy's: trial i's seed is
``SeedSequence((master, i)).generate_state(1, uint64)``, and its normals are
``default_rng(seed).standard_normal((2, M, 2))``.  ``derive_trial_seed`` and
``sample_realization`` make exactly these numpy calls, and are the stream's
reference.  ``draw_ensemble`` computes both seedings, which are fixed
algorithms (O'Neill's seed_seq hash, PCG64's ``srandom``), for a whole batch
of trials at once as uint32 and uint64 array arithmetic, with no 128-bit
Python int.  Normals are drawn per trial: each trial's state is written as
four uint64 words straight into one PCG64 generator's struct (0.13-0.20 µs a
trial on a 2-vCPU Xeon, where the ``.state`` dict setter took 1.4-2.6 µs),
and its normals go back to back into one flat buffer per chunk of trials,
which is squared and summed in pairs in one pass.  Every ``draw_ensemble``
call checks its first row against numpy's own draw of that trial, then
accumulates the prefix sums in place over that buffer: a sweep keeps no raw draws.
``oracle-check``'s case parameters are five scalar draws per case from
``default_rng(master)``; ``draw_oracle_cases`` replays them from the
generator's raw words (Lemire's bounded integers on buffered 32-bit halves,
53-bit doubles from whole words) in one loop over each block of cases' words,
and every call checks the replay against numpy's own calls.
"""

from __future__ import annotations

import ctypes  # numpy imports it too
from typing import NamedTuple

import numpy as np

from .errors import StreamMismatch, whole_count

_U64_MASK = 0xFFFFFFFFFFFFFFFF
_U32_MASK = 0xFFFFFFFF
# numpy's SeedSequence hash constants and PCG64's 128-bit LCG multiplier, also as its two words
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_PCG_MULT_LO, _PCG_MULT_HI = np.uint64(_PCG_MULT & _U64_MASK), np.uint64(_PCG_MULT >> 64)
_CHUNK_TRIALS = 256  # trials whose normals are squared and summed in one pass
_CASE_CHANNELS = 64  # oracle-check draws M in {1..64}; ragged rows are padded to at least this width


def _channel_counts(channel_count):
    """M as an int, or one M per trial as an int64 array, each checked to be a whole number >= 1."""
    m = np.asarray(channel_count)
    if not np.all(np.isfinite(m) & (m >= 1) & (m == np.floor(m))):
        raise ValueError(f"channel_count must be a positive integer, got {channel_count}")
    return int(m) if m.ndim == 0 else m.astype(np.int64)


class DisorderParams:
    """Scattering-lens parameters seen by one focus mode.

    channel_count: number of transmission channels M (the reflection side is
        modeled with the same number of channels).
    disorder_strength: s = thickness / transport mean free path; must exceed
        1 so the mean reflected intensity (1 - 1/s)/M stays nonnegative.
    Either may hold one value per trial, or s a column of sweep points, for
    :meth:`EnsembleDraws.shaped_sums`; M is stored as an int, or as an int64 array.
    """

    __slots__ = ("channel_count", "disorder_strength")

    def __init__(self, channel_count: int, disorder_strength: float) -> None:
        self.channel_count = _channel_counts(channel_count)
        weak = ~(np.asarray(disorder_strength) > 1.0)
        if np.any(weak):
            raise ValueError(
                f"disorder_strength must exceed 1, got {np.asarray(disorder_strength)[weak].tolist()[0]} "
                "(the reflected intensity (1-1/s)/M would be negative)"
            )
        self.disorder_strength = disorder_strength

    def replace(self, **changes) -> DisorderParams:
        """A copy with ``changes`` applied, checked as a new one."""
        fields = {name: getattr(self, name) for name in self.__slots__}
        return DisorderParams(**(fields | changes))


class ScatteringRealization:
    """Transmission and reflection amplitudes of one sampled focus-mode coupling vector."""

    __slots__ = ("t_amp", "r_amp")

    def __init__(self, t_amp: np.ndarray, r_amp: np.ndarray) -> None:
        self.t_amp, self.r_amp = np.asarray(t_amp, dtype=float), np.asarray(r_amp, dtype=float)
        m = self.t_amp.shape[0]
        if m < 1:
            raise ValueError("at least one transmission channel is required")
        if {self.t_amp.shape, self.r_amp.shape} != {(m,)}:
            raise ValueError(f"both amplitude arrays must share shape ({m},)")
        if np.any(self.t_amp < 0.0) or np.any(self.r_amp < 0.0):
            raise ValueError("amplitudes must be nonnegative")
        _require_flux(np.sum(self.t_amp**2) + np.sum(self.r_amp**2))

    @property
    def channel_count(self) -> int:
        return self.t_amp.shape[0]


class CouplingSums(NamedTuple):
    """Shaped coupling sums of one realization entering the focus-mode photon statistics.

    ``cum_T[n]`` and ``cum_abs_t[n]`` hold the partial sums over the first n
    transmission channels (index 0 is zero), so the full sums are exactly the
    last cumulative entries and partial/full formulas agree bitwise.  The
    unfed transmission plus all reflection is the rest of the flux, 1 - tau_N,
    so no other sum is kept.
    """

    cum_T: np.ndarray
    cum_abs_t: np.ndarray

    @property
    def channel_count(self) -> int:
        return self.cum_T.shape[0] - 1

    def shaped_sums(self, fed_modes: int):
        """(tau_N, sum_{a<=N} |t_a|) at N = ``fed_modes``, as in EnsembleDraws."""
        if not 0 <= fed_modes <= self.channel_count:
            raise ValueError(f"fed_modes={fed_modes} outside [0, {self.channel_count}]")
        return float(self.cum_T[fed_modes]), float(self.cum_abs_t[fed_modes])


def mask_seed(seed: int) -> int:
    """Map an arbitrary integer seed onto the unsigned 64-bit range."""
    return int(seed) & _U64_MASK


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """init * mult**k mod 2**32 for k < count, as a (count, 1) column of uint32."""
    constants = [init]
    for _ in range(count - 1):
        constants.append(constants[-1] * mult & _U32_MASK)
    return np.array(constants, dtype=np.uint32)[:, None]


def _hashmix(values, xors, mults):
    """SeedSequence's hashmix, with the hash constant before and after its update given."""
    values = (values ^ xors) * mults
    return values ^ (values >> np.uint32(16))


def _seed_sequence_words(entropy: np.ndarray, words: int) -> np.ndarray:
    """``SeedSequence(e).generate_state(words, uint32)`` for each column e of ``entropy``.

    ``entropy`` is (4, n) uint32, each column one entropy of at most four words,
    zero-padded: with no spawn key, SeedSequence hashes a missing word exactly like
    an explicit 0.  Returns (words, n) uint32.  All arithmetic is on arrays, which
    wrap modulo 2**32 as the C code does.
    """
    mix = _hash_constants(_INIT_A, _MULT_A, 17)  # 4 fills + 12 mixes use 16 hashmix steps
    pool = _hashmix(entropy, mix[0:4], mix[1:5])
    step = 4
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        hashed = _hashmix(pool[src], mix[step : step + 3], mix[step + 1 : step + 4])
        mixed = np.uint32(_MIX_MULT_L) * pool[dst] - np.uint32(_MIX_MULT_R) * hashed
        pool[dst] = mixed ^ (mixed >> np.uint32(16))
        step += 3
    out = _hash_constants(_INIT_B, _MULT_B, words + 1)
    return _hashmix(pool[np.arange(words) % 4], out[:-1], out[1:])


def _split_words(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Low and high uint32 words of uint64 values."""
    return (values & np.uint64(_U32_MASK)).astype(np.uint32), (values >> np.uint64(32)).astype(np.uint32)


def _join_words(low: np.ndarray, high: np.ndarray) -> np.ndarray:
    return low.astype(np.uint64) | (high.astype(np.uint64) << np.uint64(32))


def _trial_seeds(master_seed: int, indices: np.ndarray) -> np.ndarray:
    """``derive_trial_seed(master_seed, i)`` for each uint64 trial index i, at once."""
    master = mask_seed(master_seed)
    low, high = _split_words(indices)
    entropy = np.zeros((4, indices.shape[0]), dtype=np.uint32)
    if master >> 32:  # the master takes two words, the index the other two
        entropy[0], entropy[1], entropy[2], entropy[3] = master & _U32_MASK, master >> 32, low, high
    else:
        entropy[0], entropy[1], entropy[2] = master, low, high
    return _join_words(*_seed_sequence_words(entropy, 2))


def _mulhi(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The high word of each 128-bit product of uint64 arrays ``a`` and ``b``, from 32-bit halves."""
    low, shift = np.uint64(_U32_MASK), np.uint64(32)
    a_lo, a_hi, b_lo, b_hi = a & low, a >> shift, b & low, b >> shift
    cross_a, cross_b = a_hi * b_lo, a_lo * b_hi
    middle = (a_lo * b_lo >> shift) + (cross_a & low) + (cross_b & low)
    return a_hi * b_hi + (cross_a >> shift) + (cross_b >> shift) + (middle >> shift)


def _add128(a_lo, a_hi, b_lo, b_hi):
    """(low, high) words of a + b mod 2**128."""
    low = a_lo + b_lo
    return low, a_hi + b_hi + (low < b_lo)


def _pcg64_step(lo, hi, inc_lo, inc_hi):
    """(low, high) words of PCG64's step, state * MULT + inc mod 2**128."""
    high = _mulhi(lo, _PCG_MULT_LO) + lo * _PCG_MULT_HI + hi * _PCG_MULT_LO
    return _add128(lo * _PCG_MULT_LO, high, inc_lo, inc_hi)


def _pcg64_states(seeds: np.ndarray) -> np.ndarray:
    """``np.random.default_rng(seed)``'s PCG64 words (state_lo, state_hi, inc_lo, inc_hi) per uint64 seed.

    Returns (n, 4) uint64.  The 4 x uint64 SeedSequence state is (initstate high,
    low, initseq high, low); pcg_setseq_128_srandom_r sets inc = 2 initseq + 1 and
    state = (initstate + inc) * MULT + inc, mod 2**128.  All of it is uint64 array
    arithmetic on every seed at once: sums carry into the high word, and the
    product's high word comes from ``_mulhi``; no 128-bit Python int is formed.
    0.13-0.19 µs a trial at 10,000 trials.
    """
    entropy = np.zeros((4, seeds.shape[0]), dtype=np.uint32)
    entropy[0], entropy[1] = _split_words(seeds)
    words = _seed_sequence_words(entropy, 8)
    init_hi, init_lo, seq_hi, seq_lo = _join_words(words[0::2], words[1::2])
    one = np.uint64(1)
    inc_lo, inc_hi = seq_lo << one | one, seq_hi << one | seq_lo >> np.uint64(63)
    state = _pcg64_step(*_add128(init_lo, init_hi, inc_lo, inc_hi), inc_lo, inc_hi)
    return np.stack((*state, inc_lo, inc_hi), axis=1)


def _state_words(bit_generator: np.random.PCG64):
    """A ``(c_uint64 * 4)`` view of ``bit_generator``'s pcg64_random_t and the order of its words.

    numpy's PCG64 state, at ``ctypes.state_address``, starts with a pointer to two
    128-bit words, state then inc, each stored low word first where numpy has a
    native 128-bit type and high word first where it emulates one.  Which one is
    read off the generator's own ``.state``; ``order`` takes a ``_pcg64_states``
    row to the struct's order.  The view is valid while ``bit_generator`` lives.
    """
    address = ctypes.c_void_p.from_address(bit_generator.ctypes.state_address).value
    words = (ctypes.c_uint64 * 4).from_address(address)
    pcg = bit_generator.state["state"]
    known = [pcg["state"] & _U64_MASK, pcg["state"] >> 64, pcg["inc"] & _U64_MASK, pcg["inc"] >> 64]
    for order in ([0, 1, 2, 3], [1, 0, 3, 2]):
        if list(words) == [known[i] for i in order]:
            return words, order
    raise StreamMismatch(f"numpy {np.__version__}'s PCG64 words are laid out in neither order")


def _draw_trials(out: np.ndarray, seeds: np.ndarray, channel_counts) -> None:
    """Write trial j's |z|^2 into ``out[j, :, :M]``, M = ``channel_counts[j]``, and zeros past it.

    The batched stream behind ``draw_ensemble``.  Row 0 is transmission, row 1
    reflection, and each entry is bitwise ``_numpy_draw(seeds[j], M)``'s.
    Normals are drawn per trial: each trial's four PCG64 words
    (``_pcg64_states``, for every trial at once, taken one chunk at a time by
    one ``tolist()``) are written straight into one generator's state through
    the ``_state_words`` view (0.13-0.20 µs a trial), and the generator writes
    the trial's 4 M normals back to back into one flat buffer, reused by each
    chunk of ``_CHUNK_TRIALS`` trials.  The chunk is squared in place and its
    pair sums (M transmission, then M reflection, per trial) go into ``out`` by
    a reshape when every M fills the row, else into the filled entries after
    the padding is zeroed.  ``Generator`` keeps no normals between calls, so
    splitting the draws this way leaves the stream unchanged.
    """
    generator = np.random.Generator(np.random.PCG64(0))
    words, order = _state_words(generator.bit_generator)
    counts, width = np.asarray(channel_counts), out.shape[-1]
    flat = np.empty(min(_CHUNK_TRIALS, out.shape[0]) * 4 * width)  # reused by every chunk
    channel, states = np.arange(width), _pcg64_states(seeds)[:, order]
    for start in range(0, out.shape[0], _CHUNK_TRIALS):
        m = counts[start : start + _CHUNK_TRIALS]
        ends = np.cumsum(4 * m).tolist()
        chunk, rows = flat[: ends[-1]], out[start : start + m.shape[0]]
        for begin, end, words[:] in zip([0, *ends], ends, states[start : start + _CHUNK_TRIALS].tolist()):
            generator.standard_normal(out=chunk[begin:end])
        np.square(chunk, out=chunk)
        if m.min() == width:
            np.add(chunk[0::2], chunk[1::2], out=rows.reshape(-1))
        else:
            filled = np.broadcast_to(channel < m[:, None, None], rows.shape)
            rows[~filled] = 0.0
            rows[filled] = chunk[0::2] + chunk[1::2]


def _case_blocks(bit_generator: np.random.PCG64, cases: int, block_cases: int):
    """Yield (trials, M, N, s, g, alpha2) for each block of ``oracle-check`` cases.

    Bitwise the values of ``Generator(bit_generator)`` called per case as
    ``M = integers(1, 65)``, ``N = integers(1, M + 1)``, then
    ``s = 1 + 9 (1 - random())``, ``g = 2 random()`` and ``alpha2 = 1e5 random()``.
    One loop reads each block's raw words as Python ints.  A bounded draw takes
    a 32-bit half, the low half of a new word first, and the high half stays
    buffered, across cases and blocks, for the next bounded draw.  It is
    Lemire's multiply-shift, redrawn while ``half * bound mod 2**32`` falls below
    ``2**32 mod bound``: never for M, whose bound 64 divides 2**32, and N draws
    nothing when M = 1.  ``random()`` takes a whole word's top 53 bits; the loop
    notes where each case's three such words start, and the block's doubles
    are formed at once.  A case takes at most four words unless N is redrawn,
    so only a redraw can need words beyond four for each case left.
    """
    words, pending = np.empty(0, dtype=np.uint64), None  # pulled, unread words; buffered high half
    for start in range(0, cases, block_cases):
        count = min(block_cases, cases - start)
        words = np.concatenate((words, bit_generator.random_raw(max(0, 4 * count - words.shape[0]))))
        values, at, m, n, first = words.tolist(), 0, [], [], []
        for left in range(count, 0, -1):
            if pending is None:
                half, pending, at = values[at] & _U32_MASK, values[at] >> 32, at + 1
            else:
                half, pending = pending, None
            m_case = n_case = (half * _CASE_CHANNELS >> 32) + 1
            while m_case > 1:
                if pending is None:
                    half, pending, at = values[at] & _U32_MASK, values[at] >> 32, at + 1
                else:
                    half, pending = pending, None
                product = half * m_case
                if product & _U32_MASK >= (1 << 32) % m_case:
                    n_case = (product >> 32) + 1
                    break
                if at + 4 * left > len(values):  # a redraw: keep four words for each case left
                    more = bit_generator.random_raw(at + 4 * left - len(values))
                    words, values = np.concatenate((words, more)), values + more.tolist()
            m.append(m_case)
            n.append(n_case)
            first.append(at)
            at += 3
        u = (words[np.array(first)[:, None] + np.arange(3)] >> np.uint64(11)).astype(np.float64) * 2.0**-53
        words = words[at:]
        m, n = np.array(m, dtype=np.int64), np.array(n, dtype=np.int64)
        yield range(start, start + count), m, n, 1.0 + 9.0 * (1.0 - u[:, 0]), 2.0 * u[:, 1], 1e5 * u[:, 2]


def _check_case_stream() -> None:
    """Raise StreamMismatch unless the case replay equals numpy's scalar draws.

    Master seed 1 has M = 1 at case 57, and its buffered half crosses the
    block edge at case 60.
    """
    rng, expected = np.random.default_rng(1), []
    for _ in range(64):
        m = int(rng.integers(1, _CASE_CHANNELS + 1))
        n = int(rng.integers(1, m + 1))
        expected.append((m, n, 1.0 + 9.0 * (1.0 - rng.random()), 2.0 * rng.random(), 1e5 * rng.random()))
    replayed = [np.concatenate(column) for column in zip(*_case_blocks(np.random.PCG64(1), 64, 60))][1:]
    if not all(np.array_equal(*pair) for pair in zip(replayed, map(np.array, zip(*expected)))):
        raise StreamMismatch(
            f"oracle-check case parameters replayed from PCG64 words depart from numpy "
            f"{np.__version__}'s Generator.integers and random; the case stream would change"
        )


def draw_oracle_cases(master_seed: int, cases: int, block_cases: int):
    """Yield (trials, M, N, s, g, alpha2) for each block of ``oracle-check``'s cases.

    Case i draws M in {1..64}, N in {1..M}, s in (1, 10], g in [0, 2) and
    alpha2 in [0, 1e5) from ``default_rng(mask_seed(master_seed))``, five
    calls per case in that order; ``trials`` is the block's range of case
    indices.  The values are replayed from the generator's raw words a
    block at a time (``_case_blocks``), checked on every call.
    """
    _check_case_stream()
    yield from _case_blocks(np.random.PCG64(mask_seed(master_seed)), cases, block_cases)


def derive_trial_seed(master_seed: int, trial_index: int) -> int:
    """Stateless (master seed, trial index) -> child seed mix.

    ``SeedSequence((mask_seed(master_seed), trial_index)).generate_state(1, uint64)``,
    so any execution order or worker count reproduces the same per-trial streams.
    """
    if not (0 <= trial_index <= _U64_MASK and trial_index % 1 == 0):
        raise ValueError(f"trial_index must be a whole number in [0, 2**64), got {trial_index}")
    entropy = (mask_seed(master_seed), int(trial_index))
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])


def _flux_scales(raw_T, raw_R, m, s):
    """Per-row factors taking raw |z_t|^2 and |z_r|^2 to intensities that sum to exactly one.

    The channel weights are the raw per-quadrature variances, 1/(2Ms) for t and (1-1/s)/(2M) for r.
    """
    t_weight, r_weight = 1.0 / (2.0 * m * s), (1.0 - 1.0 / s) / (2.0 * m)
    norm = 1.0 / (t_weight * raw_T + r_weight * raw_R)
    return t_weight * norm, r_weight * norm


def _require_flux(flux) -> None:
    deviation = np.max(np.abs(flux - 1.0))  # a nan flux gives a nan deviation, which fails too
    if not deviation <= 1e-12:
        raise ValueError(f"flux not conserved: |sum|t|^2 + sum|r|^2 - 1| = {float(deviation)!r}")


def _amplitudes(intensity: np.ndarray, m, s) -> tuple[np.ndarray, np.ndarray]:
    """Flux-normalized |t| and |r| of intensities shaped (..., 2, channels); callers check them."""
    transmitted, reflected = intensity[..., 0, :], intensity[..., 1, :]
    t_scale, r_scale = _flux_scales(transmitted.sum(axis=-1), reflected.sum(axis=-1), m, s)
    return np.sqrt(t_scale[..., None] * transmitted), np.sqrt(r_scale[..., None] * reflected)


def _numpy_draw(seed: int, m: int) -> np.ndarray:
    """Raw |z_t|^2 and |z_r|^2 of one trial, shaped (2, m): numpy's own draw, the stream's reference."""
    return np.square(np.random.default_rng(mask_seed(seed)).standard_normal((2, m, 2))).sum(axis=2)


def sample_realization(params: DisorderParams, seed: int) -> ScatteringRealization:
    """Draw one scattering realization, exactly flux-normalized.

    Deterministic function of (params, seed): identical inputs give a
    bitwise-identical realization.
    """
    m = params.channel_count
    return ScatteringRealization(*_amplitudes(_numpy_draw(seed, m), m, params.disorder_strength))


def coupling_sums(real: ScatteringRealization) -> CouplingSums:
    """Prefix sums of |t|^2 and |t| over a realization's transmission channels."""
    return CouplingSums(
        np.concatenate(([0.0], np.cumsum(real.t_amp**2))), np.concatenate(([0.0], np.cumsum(real.t_amp)))
    )


class EnsembleDraws(NamedTuple):
    """A seeded ensemble's draws, before any s-dependent scaling.

    Row j is trial ``trials[j]`` of :func:`draw_ensemble`, the draw of
    ``sample_realization(params, derive_trial_seed(master_seed, trials[j]))``:
    prefix sums of raw |z_t|^2 and |z_t| over the transmission channels, and
    the total raw |z_r|^2.  ``intensity``, the raw |z_t|^2 and |z_r|^2 (zero
    past the row's M), is None unless asked for (``keep_raw``); without it,
    ``cum_T`` and ``cum_abs_t`` are the two halves of the buffer drawn into.
    Rows are M wide for one M, and padded as :func:`draw_ensemble` says for one M per row.
    """

    intensity: np.ndarray | None
    channel_counts: np.ndarray
    cum_T: np.ndarray
    cum_abs_t: np.ndarray
    sum_R: np.ndarray

    def shaped_sums(self, params: DisorderParams, fed_modes):
        """Per-trial (tau_N, sum_{a<=N} |t_a|), exactly flux-normalized.

        M and s (``params``) and N = ``fed_modes`` are each one value or one per row,
        or s or N a (points, 1) column, which gives (points, trials) arrays.  The
        normalization is checked here; the rest of each row's flux, unfed
        transmission plus reflection, is 1 - tau_N.
        """
        m, rows = params.channel_count, np.arange(self.sum_R.shape[0])
        if np.any(self.channel_counts != m) or not np.all((1 <= fed_modes) & (fed_modes <= m)):
            drawn = np.unique(self.channel_counts)
            raise ValueError(f"M={m}, N={fed_modes} do not fit draws of M in {drawn}")
        raw_T, raw_T_n = self.cum_T[rows, m - 1], self.cum_T[rows, fed_modes - 1]
        t_scale, r_scale = _flux_scales(raw_T, self.sum_R, m, params.disorder_strength)
        _require_flux(t_scale * raw_T + r_scale * self.sum_R)
        return t_scale * raw_T_n, np.sqrt(t_scale) * self.cum_abs_t[rows, fed_modes - 1]


def draw_ensemble(channel_count, trials, master_seed: int, *, keep_raw: bool = False) -> EnsembleDraws:
    """Draw each trial once and keep its prefix sums, and its raw intensities if ``keep_raw``.

    ``trials`` is a count n, meaning ``range(n)``, or a range of trial indices; ``channel_count``
    is one M, which sets the row width, or one per trial, checked as DisorderParams checks it.  Then rows are
    zero-padded to 64 columns, or to the largest M where that is more: every sum along a
    row runs over the padded width, so a row with M <= 64 has the same bits whichever
    trials share its call.  The prefix sums are built in place over the draw buffer,
    |z_t| over the reflected half once its total is taken, so a draw holds one buffer;
    with ``keep_raw`` (the oracle check, which normalizes raw draws itself) they go
    into a second buffer of the same shape by the same steps.
    """
    indices = trials if isinstance(trials, range) else range(whole_count(trials, "trials"))
    if len(indices) < 1:
        raise ValueError("trials must be >= 1")
    if min(indices[0], indices[-1]) < 0 or max(indices[0], indices[-1]) > _U64_MASK:
        raise ValueError("trial indices must lie in [0, 2**64)")
    counts = np.broadcast_to(_channel_counts(channel_count), (len(indices),))
    width = int(counts.max()) if np.ndim(channel_count) == 0 else max(_CASE_CHANNELS, int(counts.max()))
    intensity = np.empty((len(indices), 2, width))
    seeds = _trial_seeds(master_seed, np.arange(indices.start, indices.stop, indices.step, dtype=np.uint64))
    _draw_trials(intensity, seeds, counts)
    m = int(counts[0])
    if not np.array_equal(intensity[0, :, :m], _numpy_draw(derive_trial_seed(master_seed, indices[0]), m)):
        raise StreamMismatch(
            f"batched draw of master seed {master_seed}'s trial {indices[0]} departs from numpy "
            f"{np.__version__}'s SeedSequence/PCG64 stream; the disorder stream would change"
        )
    sum_R = intensity[:, 1].sum(axis=1)
    sums = np.empty_like(intensity) if keep_raw else intensity
    np.sqrt(intensity[:, 0], out=sums[:, 1])
    np.cumsum(intensity[:, 0], axis=1, out=sums[:, 0])
    np.cumsum(sums[:, 1], axis=1, out=sums[:, 1])
    return EnsembleDraws(intensity if keep_raw else None, counts, sums[:, 0], sums[:, 1], sum_R)
