import ctypes
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from speckleq import (
    CouplingSums,
    DisorderParams,
    ScatteringRealization,
    coupling_sums,
    derive_trial_seed,
    draw_ensemble,
    sample_realization,
)
from speckleq import StreamMismatch, random_media
from speckleq.random_media import mask_seed, normalization_bias


def ensemble_sum_t(params, trials, seed):
    """Per-trial flux-normalized sum_T of a drawn ensemble, with its mean and standard error."""
    draws = draw_ensemble(params.channel_count, trials, seed)
    sum_t = draws.shaped_sums(params, params.channel_count)[0]
    return sum_t, float(np.mean(sum_t)), float(np.std(sum_t, ddof=1) / np.sqrt(trials))


def make_realization(t_amp, r_amp):
    t_amp = np.asarray(t_amp, dtype=float)
    r_amp = np.asarray(r_amp, dtype=float)
    return ScatteringRealization(t_amp, r_amp)


class TestValidation:
    def test_rejects_zero_channels(self):
        with pytest.raises(ValueError):
            DisorderParams(0, 2.0)

    @pytest.mark.parametrize("s", [1.0, 0.5, -3.0])
    def test_rejects_weak_disorder(self, s):
        with pytest.raises(ValueError):
            DisorderParams(5, s)

    def test_rejects_flux_violation(self):
        with pytest.raises(ValueError):
            make_realization([0.9], [0.9])

    def test_rejects_negative_amplitude(self):
        with pytest.raises(ValueError):
            make_realization([-1.0], [0.0])

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            ScatteringRealization(np.array([1.0]), np.zeros(2))

    @pytest.mark.parametrize("m,s", [([3, 0, 5], [2.0, 2.0, 2.0]), ([3, 4, 5], [2.0, 1.0, 3.0]),
                                     ([3, 4, 5], [2.0, 3.0, 0.5]), ([3, -1, 5], 2.0)])
    def test_per_case_params_check_every_case(self, m, s):
        with pytest.raises(ValueError):
            DisorderParams(np.array(m), np.array(s))

    def test_per_case_params_accept_valid_arrays(self):
        params = DisorderParams(np.array([1, 64]), np.array([1.5, 10.0]))
        assert params.channel_count.shape == (2,)


class TestSampling:
    def test_weak_disorder_transmits_everything(self):
        # s -> 1+ kills the reflected variance, so one channel carries all flux
        real = sample_realization(DisorderParams(1, 1.0 + 1e-12), seed=3)
        assert real.t_amp[0] == pytest.approx(1.0, abs=1e-5)
        assert real.r_amp[0] < 1e-5

    def test_flux_conservation(self):
        params = DisorderParams(50, 2.0)
        for i in range(200):
            real = sample_realization(params, seed=i)
            flux = np.sum(real.t_amp**2) + np.sum(real.r_amp**2)
            assert abs(flux - 1.0) < 1e-12

    def test_deterministic_in_params_and_seed(self):
        params = DisorderParams(13, 3.5)
        a = sample_realization(params, seed=42)
        b = sample_realization(params, seed=42)
        assert np.array_equal(a.t_amp, b.t_amp)
        assert np.array_equal(a.r_amp, b.r_amp)

    def test_seed_changes_realization(self):
        params = DisorderParams(13, 3.5)
        a = sample_realization(params, seed=42)
        b = sample_realization(params, seed=43)
        assert not np.array_equal(a.t_amp, b.t_amp)

    def test_negative_seed_accepted(self):
        real = sample_realization(DisorderParams(4, 2.0), seed=-17)
        assert real.channel_count == 4


class TestCouplingSums:
    def test_perfect_transmission(self):
        real = make_realization([1.0], [0.0])
        sums = coupling_sums(real)
        assert sums.cum_T[-1] == 1.0
        assert sums.cum_abs_t[-1] == 1.0
        assert np.sum(real.r_amp**2) == 1.0 - sums.cum_T[-1] == 0.0

    def test_two_channel_arithmetic(self):
        real = make_realization([0.5, 0.5], [np.sqrt(0.5), 0.0])
        sums = coupling_sums(real)
        assert sums.cum_T[-1] == pytest.approx(0.5, abs=1e-15)
        assert sums.cum_abs_t[-1] == pytest.approx(1.0, abs=1e-15)
        assert np.sum(real.r_amp**2) == pytest.approx(1.0 - sums.cum_T[-1], abs=1e-15)

    def test_sums_to_one(self):
        params = DisorderParams(32, 4.0)
        for i in range(50):
            real = sample_realization(params, i)
            assert abs(coupling_sums(real).cum_T[-1] + np.sum(real.r_amp**2) - 1.0) < 1e-12

    def test_abs_sum_dominates_intensity_sum(self):
        # (sum |t|)^2 >= sum |t|^2, equality only for a single active channel
        params = DisorderParams(32, 4.0)
        for i in range(50):
            tau, abs_sum = coupling_sums(sample_realization(params, i)).shaped_sums(32)
            assert abs_sum**2 >= tau
        tau, abs_sum = coupling_sums(make_realization([1.0], [0.0])).shaped_sums(1)
        assert abs_sum**2 == tau

    def test_partial_sums_monotone_and_consistent(self):
        real = sample_realization(DisorderParams(20, 2.0), 11)
        sums = coupling_sums(real)
        partial_t, partial_a = np.array([sums.shaped_sums(n) for n in range(21)]).T
        assert partial_t[0] == 0.0 and partial_a[0] == 0.0
        assert np.all(np.diff(partial_t) >= 0.0)
        assert np.all(np.diff(partial_a) >= 0.0)
        # each pair is read off the prefix arrays, so the full sums are exactly their last entries
        assert np.array_equal(partial_t, sums.cum_T) and np.array_equal(partial_a, sums.cum_abs_t)
        assert partial_t[-1] == pytest.approx(np.sum(real.t_amp**2), rel=1e-14)
        assert partial_a[-1] == pytest.approx(np.sum(real.t_amp), rel=1e-14)
        # the unfed transmission plus all reflection is the rest of the flux, 1 - tau_N
        rest = np.sum(real.t_amp**2) - partial_t + np.sum(real.r_amp**2)
        assert np.max(np.abs(rest - (1.0 - partial_t))) <= 1e-12

    def test_partial_sum_range_checked(self):
        sums = coupling_sums(make_realization([1.0], [0.0]))
        with pytest.raises(ValueError):
            sums.shaped_sums(2)
        with pytest.raises(ValueError):
            sums.shaped_sums(-1)

    def test_direct_construction_partial_access(self):
        cum_t = np.array([0.0, 0.3, 0.5])
        cum_a = np.array([0.0, 0.6, 1.1])
        sums = CouplingSums(cum_t, cum_a)
        assert sums.channel_count == 2
        assert sums.shaped_sums(1) == (0.3, 0.6)
        assert sums.shaped_sums(2) == (0.5, 1.1)


class TestEnsembleStats:
    def test_seed_mix_is_stateless(self):
        assert derive_trial_seed(123, 5) == derive_trial_seed(123, 5)
        assert derive_trial_seed(123, 5) != derive_trial_seed(123, 6)
        assert derive_trial_seed(-1, 0) == derive_trial_seed(-1, 0)
        with pytest.raises(ValueError):
            derive_trial_seed(1, -1)

    def test_mean_transmission_small_samples(self):
        sum_t, mean, _ = ensemble_sum_t(DisorderParams(50, 2.0), trials=400, seed=2)
        assert mean == pytest.approx(0.5, abs=0.02)
        assert sum_t.shape == (400,)

    def test_reflection_mean_complement(self):
        # every realization conserves flux, so its reflected sum is the complement of sum_T
        params = DisorderParams(50, 6.0)
        draws = draw_ensemble(50, 100, 4)
        tau = draws.shaped_sums(params, 50)[0]
        t_amp, r_amp = draws.amplitudes(6.0)
        sum_t, sum_r = np.sum(t_amp**2, axis=1), np.sum(r_amp**2, axis=1)
        assert np.max(np.abs(sum_t + sum_r - 1.0)) <= 1e-12
        np.testing.assert_allclose(tau, sum_t, rtol=1e-14)
        assert np.mean(sum_r) == pytest.approx(1.0 - np.mean(tau), abs=1e-12)

    @pytest.mark.parametrize("s,band", [(2.0, 0.01), (6.0, 0.005)])
    def test_mean_transmission_matches_inverse_s(self, s, band):
        # Monte Carlo against the ensemble mean sum_T -> 1/s at 10^4 trials
        _, mean, _ = ensemble_sum_t(DisorderParams(50, s), trials=10_000, seed=20)
        assert abs(mean - 1.0 / s) < band

    @pytest.mark.parametrize("s", [2.0, 4.0, 6.0, 8.0])
    def test_mean_transmission_finite_size_oracle(self, s):
        # The exact flux normalization shifts E[sum_T] off 1/s by the known
        # O(1/M) delta-method correction (zero at s = 2); against that
        # corrected reference the sampler is unbiased at the 4-sigma level.
        # Against plain 1/s the shift itself exceeds 4 stderr at 1e4 trials
        # for s > 2, which the loose bands above absorb.
        params = DisorderParams(50, s)
        _, mean, stderr = ensemble_sum_t(params, trials=10_000, seed=20)
        reference = 1.0 / s + normalization_bias(params)
        assert abs(mean - reference) < 4.0 * stderr

    def test_normalization_bias_resolved_at_small_m(self):
        # At M = 20, s = 4 the O(1/M) shift is about 15 stderr at 4e4 trials:
        # the ensemble agrees with 1/s + bias and is resolved away from 1/s.
        params = DisorderParams(20, 4.0)
        _, mean, stderr = ensemble_sum_t(params, trials=40_000, seed=20)
        reference = 1.0 / 4.0 + normalization_bias(params)
        assert abs(mean - reference) < 4.0 * stderr
        assert abs(mean - 1.0 / 4.0) > 10.0 * stderr

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            draw_ensemble(5, 0, 1)
        with pytest.raises(ValueError):
            draw_ensemble(5, range(3, 3), 1)


class TestDrawEntryPoint:
    """draw_ensemble with one M per trial and with a range of trial indices."""

    @staticmethod
    def assert_rows_match(draws, j, fixed, i, m):
        """Row j of ``draws`` is row i of the fixed-M draw ``fixed`` in its first m channels, zero after."""
        assert np.array_equal(draws.intensity[j, :, :m], fixed.intensity[i])
        assert np.all(draws.intensity[j, :, m:] == 0.0)
        assert np.array_equal(draws.cum_T[j, :m], fixed.cum_T[i])
        assert np.array_equal(draws.cum_abs_t[j, :m], fixed.cum_abs_t[i])

    def test_ragged_rows_equal_fixed_m_rows(self):
        counts = [3, 1, 64, 7, 7, 20]
        draws = draw_ensemble(np.array(counts), len(counts), 5)
        assert draws.intensity.shape == (6, 2, 64)
        assert draws.channel_counts.tolist() == counts
        for j, m in enumerate(counts):
            self.assert_rows_match(draws, j, draw_ensemble(m, len(counts), 5), j, m)

    def test_ragged_row_does_not_depend_on_the_rows_beside_it(self):
        # rows with M <= 64 are padded to 64 columns, so each row is summed over the same width
        alone = draw_ensemble([20], range(7, 8), 4)
        for counts in ([20, 3], [1, 20], [64, 20, 5], [2, 2, 20]):
            j = counts.index(20)
            draws = draw_ensemble(counts, range(7 - j, 7 - j + len(counts)), 4)
            assert draws.intensity.shape[-1] == 64
            for name in ("intensity", "cum_T", "cum_abs_t", "sum_R"):
                assert np.array_equal(getattr(draws, name)[j], getattr(alone, name)[0])
            for got, want in zip(draws.amplitudes(3.0), alone.amplitudes(3.0)):
                assert np.array_equal(got[j], want[0])

    def test_padding_width(self):
        assert draw_ensemble(20, 3, 4).intensity.shape[-1] == 20  # one M: no padding
        assert draw_ensemble([20, 20], 2, 4).intensity.shape[-1] == 64
        assert draw_ensemble([3, 100], 2, 4).intensity.shape[-1] == 100

    def test_range_rows_equal_fixed_m_rows(self):
        fixed = draw_ensemble(9, 40, 3)
        draws = draw_ensemble(9, range(17, 40), 3)
        for j, i in enumerate(range(17, 40)):
            self.assert_rows_match(draws, j, fixed, i, 9)
        assert np.array_equal(draws.sum_R, fixed.sum_R[17:])

    def test_ragged_range_rows(self):
        counts = [2, 5, 4]
        draws = draw_ensemble(counts, range(100, 103), 8)
        for j, m in enumerate(counts):
            self.assert_rows_match(draws, j, draw_ensemble(m, range(100, 103), 8), j, m)

    def test_count_means_range_from_zero(self):
        count, span = draw_ensemble(6, 12, 2), draw_ensemble(6, range(12), 2)
        for name in ("intensity", "cum_T", "cum_abs_t", "sum_R"):
            assert np.array_equal(getattr(count, name), getattr(span, name))

    def test_per_row_shaped_sums_and_amplitudes_match_single_trials(self):
        counts, strengths, fed = np.array([4, 1, 9]), np.array([1.5, 3.0, 8.0]), np.array([2, 1, 9])
        draws = draw_ensemble(counts, range(30, 33), 6)
        params = DisorderParams(counts, strengths)
        sums = np.array(draws.shaped_sums(params, fed))
        t_amp, r_amp = draws.amplitudes(strengths)
        for j, (m, s, n) in enumerate(zip(counts, strengths, fed)):
            real = sample_realization(DisorderParams(m, s), derive_trial_seed(6, 30 + j))
            # padded rows are summed over more (zero) terms, so only rounding may differ
            np.testing.assert_allclose(sums[:, j], coupling_sums(real).shaped_sums(n), rtol=1e-14, atol=1e-16)
            np.testing.assert_allclose(t_amp[j, :m], real.t_amp, rtol=1e-14)
            np.testing.assert_allclose(r_amp[j, :m], real.r_amp, rtol=1e-14)
            assert np.all(t_amp[j, m:] == 0.0) and np.all(r_amp[j, m:] == 0.0)

    def test_params_must_fit_each_row(self):
        draws = draw_ensemble([3, 5], 2, 1)
        with pytest.raises(ValueError, match="do not fit"):
            draws.shaped_sums(DisorderParams(np.array([3, 4]), 2.0), 1)
        with pytest.raises(ValueError, match="do not fit"):
            draws.shaped_sums(DisorderParams(5, 2.0), 1)
        with pytest.raises(ValueError, match="do not fit"):
            draws.shaped_sums(DisorderParams(np.array([3, 5]), 2.0), np.array([1, 6]))

    def test_rejects_channel_counts_of_another_length(self):
        with pytest.raises(ValueError):
            draw_ensemble([3, 4, 5], 2, 1)


def reference_seed(master, index):
    """numpy's own SeedSequence: the trial seed the batched hash must reproduce."""
    return int(np.random.SeedSequence((mask_seed(master), index)).generate_state(1, np.uint64)[0])


def reference_intensities(channel_count, trials, master):
    """The per-trial draw loop the batched path replaced: one default_rng per trial."""
    return np.array([
        np.square(
            np.random.default_rng(reference_seed(master, i)).standard_normal((2, channel_count, 2))
        ).sum(axis=2)
        for i in range(trials)
    ])


MASTERS = [0, 1, 6, 2**32 - 1, 2**32, 2**64 - 1, -5]
U64 = 2**64 - 1
WORDS = st.one_of(st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**63, U64 - 1, U64]), st.integers(0, U64))


def words_of(pcg):
    """A PCG64 ``.state["state"]`` dict as _pcg64_states' row (state_lo, state_hi, inc_lo, inc_hi)."""
    return [pcg["state"] & U64, pcg["state"] >> 64, pcg["inc"] & U64, pcg["inc"] >> 64]


def joined(words):
    """Python ints of (low, high) uint64 word arrays."""
    return [lo | hi << 64 for lo, hi in zip(*(w.tolist() for w in words))]


class TestBatchedStream:
    @pytest.mark.parametrize("master", MASTERS)
    def test_trial_seeds_match_seed_sequence(self, master):
        indices = [*range(1000), *range(2**32 - 3, 2**32 + 3), 2**64 - 1]
        seeds = random_media._trial_seeds(master, np.array(indices, dtype=np.uint64))
        assert seeds.tolist() == [reference_seed(master, i) for i in indices]
        assert derive_trial_seed(master, 2**32) == reference_seed(master, 2**32)

    def test_pcg64_states_match_default_rng(self):
        # the edge seeds, then 500 drawn ones
        drawn = np.random.default_rng(5).integers(0, U64, 500, dtype=np.uint64, endpoint=True).tolist()
        seeds = [0, 1, 2**32 - 1, 2**32, U64, *drawn]
        states = random_media._pcg64_states(np.array(seeds, dtype=np.uint64))
        assert states.dtype == np.uint64 and states.shape == (len(seeds), 4)
        for seed, row in zip(seeds, states.tolist(), strict=True):
            assert row == words_of(np.random.default_rng(seed).bit_generator.state["state"])

    @given(st.lists(st.tuples(WORDS, WORDS, WORDS, WORDS), min_size=1, max_size=8))
    @example([(0, 0, 0, 0), (U64, U64, U64, U64), (U64, 0, 1, 0), (1, U64, U64, U64)])
    @example([(2**63, 2**63, 2**63, 2**63), (U64, 2**32 - 1, 2**32, U64)])
    @settings(max_examples=200, deadline=None)
    def test_word_arithmetic_is_python_int_arithmetic(self, rows):
        # _mulhi, the 128-bit sum and PCG64's step against exact Python ints, carries out of each word included
        a_lo, a_hi, b_lo, b_hi = (np.array(column, dtype=np.uint64) for column in zip(*rows))
        a, b = [lo | hi << 64 for lo, hi, _, _ in rows], [lo | hi << 64 for _, _, lo, hi in rows]
        assert random_media._mulhi(a_lo, b_lo).tolist() == [(x & U64) * (y & U64) >> 64 for x, y in zip(a, b)]
        assert random_media._mulhi(a_hi, a_lo).tolist() == [(x >> 64) * (x & U64) >> 64 for x in a]
        total = [(x + y) % 2**128 for x, y in zip(a, b)]
        assert joined(random_media._add128(a_lo, a_hi, b_lo, b_hi)) == total
        step = [(x * random_media._PCG_MULT + y) % 2**128 for x, y in zip(a, b)]
        assert joined(random_media._pcg64_step(a_lo, a_hi, b_lo, b_hi)) == step

    def test_state_words_read_the_word_order_off_the_known_state(self):
        # numpy keeps each 128-bit word low word first where it has a native 128-bit type and
        # high word first where it emulates one; any other layout cannot be written
        state, inc = 0x0123456789ABCDEF_FEDCBA9876543210, 0x1111222233334444_5555666677778889
        known = words_of({"state": state, "inc": inc})
        for layout, order in (([0, 1, 2, 3], [0, 1, 2, 3]), ([1, 0, 3, 2], [1, 0, 3, 2]), ([2, 3, 0, 1], None)):
            struct = (ctypes.c_uint64 * 4)(*(known[i] for i in layout))
            pointer = ctypes.c_void_p(ctypes.addressof(struct))
            fake = SimpleNamespace(ctypes=SimpleNamespace(state_address=ctypes.addressof(pointer)),
                                   state={"state": {"state": state, "inc": inc}})
            if order is None:
                with pytest.raises(StreamMismatch, match="neither order"):
                    random_media._state_words(fake)
            else:
                words, got = random_media._state_words(fake)
                assert got == order and ctypes.addressof(words) == ctypes.addressof(struct)

    @pytest.mark.parametrize("m", [1, 7, 50])
    def test_draws_equal_per_trial_default_rng(self, m):
        # 1100 trials cross four edges of the 256-trial chunks, each chunk's states taken in one tolist()
        trials = 4 * random_media._CHUNK_TRIALS + 76
        expected = reference_intensities(m, trials, 11)
        intensity = np.full((trials, 2, m), np.nan)
        seeds = random_media._trial_seeds(11, np.arange(trials, dtype=np.uint64))
        random_media._draw_trials(intensity, seeds, [m] * trials)
        assert np.array_equal(intensity, expected)
        draws = draw_ensemble(m, trials, 11)
        assert np.array_equal(draws.cum_T, np.cumsum(expected[:, 0], axis=1))
        assert np.array_equal(draws.cum_abs_t, np.cumsum(np.sqrt(expected[:, 0]), axis=1))
        assert np.array_equal(draws.sum_R, expected[:, 1].sum(axis=1))

    @pytest.mark.parametrize("m", [1, 7, 50])
    def test_sample_realization_is_row_i_of_draw_ensemble(self, m):
        # the rows on both sides of the call's chunk edge, from a range that starts past trial 0
        trials = range(200, 200 + random_media._CHUNK_TRIALS + 3)
        t_amp, r_amp = draw_ensemble(m, trials, 3).amplitudes(2.5)
        for j in (0, 255, 256, len(trials) - 1):
            real = sample_realization(DisorderParams(m, 2.5), derive_trial_seed(3, trials[j]))
            assert np.array_equal(real.t_amp, t_amp[j]) and np.array_equal(real.r_amp, r_amp[j])

    def test_mixed_channel_counts_leave_padding(self):
        # the oracle's layout: case j fills out[j, :, :M_j] and zeros the rest
        counts = [3, 1, 5]
        out = np.zeros((3, 2, 5))
        seeds = np.array([derive_trial_seed(4, i) for i in range(3)], dtype=np.uint64)
        random_media._draw_trials(out, seeds, counts)
        for j, m in enumerate(counts):
            normals = np.random.default_rng(int(seeds[j])).standard_normal((2, m, 2))
            single = np.square(normals).sum(axis=2)
            assert np.array_equal(out[j, :, :m], single)
            assert np.all(out[j, :, m:] == 0.0)

    def test_chunked_draw_matches_per_trial_draws_across_chunks(self):
        # 640 trials span three chunks of one reused buffer.  The first chunk is all M = 64,
        # so it fills the whole buffer and takes the reshape path; the second holds only
        # M <= 3, so the buffer past it still holds the first chunk's normals, which must
        # not reach that chunk's padding; the third mixes M = 64 with M = 1 at its edges
        rng = np.random.default_rng(12)
        counts = np.concatenate((np.full(256, 64), rng.integers(1, 4, 256), rng.integers(1, 65, 128)))
        counts[[256, 511, 512, 639]] = [1, 3, 64, 1]
        seeds = random_media._trial_seeds(13, np.arange(640, dtype=np.uint64))
        out = np.full((640, 2, 64), np.nan)
        with np.errstate(over="raise", invalid="raise"):
            random_media._draw_trials(out, seeds, counts)
        for j, m in enumerate(counts):
            normals = np.random.default_rng(int(seeds[j])).standard_normal((2, m, 2))
            assert np.array_equal(out[j, :, :m], np.square(normals).sum(axis=2))
            assert np.all(out[j, :, m:] == 0.0)

    def test_rows_are_prefix_stable(self):
        short, long = draw_ensemble(50, 300, 9), draw_ensemble(50, 1000, 9)
        for name in ("cum_T", "cum_abs_t", "sum_R"):
            assert np.array_equal(getattr(short, name), getattr(long, name)[:300])

    def test_sample_realization_is_one_trial_of_the_stream(self):
        seed = derive_trial_seed(3, 17)
        real = sample_realization(DisorderParams(6, 2.0), seed)
        expected = np.square(np.random.default_rng(seed).standard_normal((2, 6, 2))).sum(axis=2)
        t_amp, r_amp = random_media._amplitudes(expected, 6, 2.0)
        assert np.array_equal(real.t_amp, t_amp) and np.array_equal(real.r_amp, r_amp)

    def test_trial_index_must_fit_64_bits(self):
        with pytest.raises(ValueError):
            derive_trial_seed(1, 2**64)
        # ranges that leave [0, 2**64) are refused, not wrapped round to 0 or 2**64 - 1
        for trials in (range(2**64 - 2, 2**64 + 1), range(-1, 2), range(1, -2, -1)):
            with pytest.raises(ValueError, match="trial indices"):
                draw_ensemble(3, trials, 1)
        t_amp, _ = draw_ensemble(3, range(2**64 - 2, 2**64), 1).amplitudes(2.5)  # the last index is drawn
        real = sample_realization(DisorderParams(3, 2.5), derive_trial_seed(1, 2**64 - 1))
        assert np.array_equal(real.t_amp, t_amp[1])

    @pytest.mark.parametrize("part", ["seed", "state", "inc", "order"])
    def test_guard_fires_when_the_hash_departs_from_numpy(self, monkeypatch, part):
        monkeypatch.setattr(random_media, "_verified_seeds", set())  # forget earlier checks of seed 1
        if part == "seed":
            exact = random_media._trial_seeds
            monkeypatch.setattr(random_media, "_trial_seeds", lambda *a: exact(*a) ^ np.uint64(1))
        elif part == "order":  # each 128-bit word's halves written in the wrong order
            exact = random_media._state_words

            def swapped(bit_generator):
                words, order = exact(bit_generator)
                return words, [order[1], order[0], order[3], order[2]]

            monkeypatch.setattr(random_media, "_state_words", swapped)
        else:  # one bit of one word: state_hi, or inc_lo
            flip = np.array([0, 1, 0, 0] if part == "state" else [0, 0, 1, 0], dtype=np.uint64)
            exact = random_media._pcg64_states
            monkeypatch.setattr(random_media, "_pcg64_states", lambda seeds: exact(seeds) ^ flip)
        with pytest.raises(StreamMismatch, match="departs from numpy"):
            draw_ensemble(5, 10, 1)
