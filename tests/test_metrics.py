import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixquant.errors import NonMonotonicIndices, ShapeMismatch
from mixquant.metrics import (
    SENTINEL_DB,
    cosine_similarity,
    kl_divergence,
    kl_from_histograms,
    mse,
    row_powers,
    sqnr,
    sqnr_db,
    sqnr_delta,
)
from mixquant.model_io import Lcg


def scalar_sqnr(ref, test):
    ps = sum(r * r for r in ref) / len(ref)
    pn = sum((r - t) ** 2 for r, t in zip(ref, test)) / len(ref)
    if pn == 0:
        return SENTINEL_DB
    if ps == 0:
        return -SENTINEL_DB
    return 10.0 * math.log10(ps / pn)


def scalar_mse(ref, test):
    return sum((r - t) ** 2 for r, t in zip(ref, test)) / len(ref)


def scalar_cosine(a, b):
    na = math.sqrt(sum(x * x for x in a))
    nb = math.sqrt(sum(x * x for x in b))
    if na == 0 or nb == 0:
        return 0.0
    return sum(x * y for x, y in zip(a, b)) / (na * nb)


def scalar_kl(p_counts, q_counts, eps=1e-10):
    sp, sq = sum(p_counts), sum(q_counts)
    p = [c / sp + eps for c in p_counts]
    q = [c / sq + eps for c in q_counts]
    return sum(pi * math.log(pi / qi) for pi, qi in zip(p, q))


class TestSqnr:
    def test_zero_noise_sentinel(self):
        assert sqnr([1.0, 2.0], [1.0, 2.0]) == SENTINEL_DB

    def test_zero_signal_sentinel(self):
        assert sqnr([0.0, 0.0], [1.0, 1.0]) == -SENTINEL_DB

    def test_hand_value(self):
        # 10*log10((14/3) / (0.02/3)) = 10*log10(700)
        assert np.isclose(sqnr([1.0, 2.0, 3.0], [1.1, 1.9, 3.0]), 28.45098, atol=1e-4)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            sqnr([1.0, 2.0], [1.0])

    def test_monotone_under_growing_noise(self):
        rng = Lcg(4)
        ref = rng.uniform(-1, 1, (512,))
        values = []
        for k in range(1, 6):
            noise = rng.uniform(-1, 1, (512,)) * (0.01 * 2 ** k)
            values.append(sqnr(ref, ref + noise))
        assert values == sorted(values, reverse=True)


class TestMse:
    def test_identical_zero(self):
        assert mse([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_hand_value(self):
        assert np.isclose(mse([1.0, 2.0, 3.0], [1.1, 1.9, 3.0]), 0.02 / 3, atol=1e-12)

    def test_constant_offset(self):
        x = np.arange(10, dtype=np.float64)
        assert np.isclose(mse(x, x + 0.25), 0.0625)

    def test_rank_consistency_with_sqnr(self):
        """Fixed reference: larger MSE implies smaller SQNR, exactly."""
        rng = Lcg(8)
        ref = rng.uniform(-1, 1, (256,))
        pairs = []
        for k in range(10):
            test = ref + rng.uniform(-1, 1, (256,)) * (0.001 * (k + 1))
            pairs.append((mse(ref, test), sqnr(ref, test)))
        pairs.sort(key=lambda p: p[0])
        sqnrs = [p[1] for p in pairs]
        assert sqnrs == sorted(sqnrs, reverse=True)


# Row lengths at the edges of numpy's pairwise-summation blocks (8 and 128).
ROW_LENGTHS = (1, 7, 8, 9, 127, 128, 129, 4096, 4097)


def oracle_powers(ref, test):
    """Signal and noise power of each row, one raveled float64 row at a time."""
    signal, noise = [], []
    for a, b in zip(ref, test):
        a, b = np.asarray(a, np.float64).ravel(), np.asarray(b, np.float64).ravel()
        signal.append(float(np.mean(a * a)))
        noise.append(float(np.mean((a - b) ** 2)))
    return signal, noise


class TestRowPowers:
    @given(rows=st.integers(1, 9), length=st.sampled_from(ROW_LENGTHS),
           dtype=st.sampled_from([np.float32, np.float64]), nested=st.booleans(),
           seed=st.integers(0, 2 ** 32 - 1), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_rows_equal_the_scalar_oracle(self, rows, length, dtype, nested, seed, data):
        """Bit for bit, each row's powers are those of its own raveled row;
        zero rows and equal rows give the -/+200 dB sentinels."""
        kinds = data.draw(st.lists(st.sampled_from(["noisy", "zero", "equal"]),
                                   min_size=rows, max_size=rows), label="kinds")
        rng = np.random.default_rng(seed)
        scale = 10.0 ** rng.uniform(-3, 3, (rows, 1))
        ref = (rng.standard_normal((rows, length)) * scale).astype(dtype)
        test = (ref + rng.standard_normal((rows, length)) * scale * 0.01).astype(dtype)
        for j, kind in enumerate(kinds):
            if kind == "zero":
                ref[j] = 0.0
            elif kind == "equal":
                test[j] = ref[j]
        shape = (rows, 1, length) if nested else (rows, length)
        ref, test = ref.reshape(shape), test.reshape(shape)
        ref_before, test_before = ref.copy(), test.copy()

        signal, noise = row_powers(ref, test)

        want_signal, want_noise = oracle_powers(ref, test)
        assert signal.dtype == noise.dtype == np.float64
        assert [x.hex() for x in signal.tolist()] == [x.hex() for x in want_signal]
        assert [x.hex() for x in noise.tolist()] == [x.hex() for x in want_noise]
        assert np.array_equal(ref, ref_before) and np.array_equal(test, test_before)
        for j, kind in enumerate(kinds):
            db = sqnr_db(signal[j], noise[j])
            assert db == sqnr(ref[j], test[j])
            assert float(noise[j]) == mse(ref[j], test[j])
            if kind == "equal":
                assert db == SENTINEL_DB
            elif kind == "zero":
                assert db == -SENTINEL_DB

    @pytest.mark.parametrize("shapes", [((2, 3), (3, 2)), ((2, 3), (2, 4)), ((1, 6), (6,))])
    def test_shape_mismatch(self, shapes):
        a, b = (np.ones(shape, np.float32) for shape in shapes)
        with pytest.raises(ShapeMismatch):
            row_powers(a, b)
        with pytest.raises(ShapeMismatch):
            row_powers(a, b, rows=1)


class TestCosine:
    def test_identical(self):
        assert np.isclose(cosine_similarity([1.0, 2.0], [1.0, 2.0]), 1.0)

    def test_orthogonal(self):
        assert cosine_similarity([1.0, 0.0], [0.0, 1.0]) == 0.0
        assert cosine_similarity([1.0, 1.0], [1.0, -1.0]) == 0.0

    def test_zero_norm_convention(self):
        assert cosine_similarity([0.0, 0.0], [1.0, 2.0]) == 0.0

    @given(st.lists(st.floats(-100, 100, width=32), min_size=2, max_size=32),
           st.lists(st.floats(-100, 100, width=32), min_size=2, max_size=32))
    @settings(max_examples=100, deadline=None)
    def test_bounded(self, a, b):
        n = min(len(a), len(b))
        value = cosine_similarity(np.array(a[:n]), np.array(b[:n]))
        assert -1.0 - 1e-9 <= value <= 1.0 + 1e-9


class TestKl:
    def test_identical_zero(self):
        rng = Lcg(6)
        x = rng.uniform(-1, 1, (512,))
        assert kl_divergence(x, x) <= 1e-12

    def test_prebinned_hand_value(self):
        # 0.5*ln(0.5/0.9) + 0.5*ln(0.5/0.1) ~ 0.5108 nats
        assert np.isclose(kl_from_histograms([0.5, 0.5], [0.9, 0.1]), 0.510826, atol=1e-5)

    def test_empty_bin_overlap_is_finite(self):
        v = kl_from_histograms([1.0, 0.0], [0.0, 1.0])
        assert np.isfinite(v) and v > 0

    @given(st.lists(st.floats(-10, 10, width=32), min_size=8, max_size=64),
           st.floats(0.0, 2.0))
    @settings(max_examples=100, deadline=None)
    def test_nonnegative(self, values, shift):
        ref = np.asarray(values, np.float64)
        test = ref + shift
        assert kl_divergence(ref, test, bins=16) >= -1e-12


class TestSqnrDelta:
    def test_consecutive(self):
        assert sqnr_delta([(0, 30.0), (1, 25.0), (2, 28.0)]) == [0.0, -5.0, 3.0]

    def test_constant(self):
        assert sqnr_delta([(0, 12.0), (1, 12.0), (2, 12.0)]) == [0.0, 0.0, 0.0]

    def test_gap_normalization(self):
        assert sqnr_delta([(0, 30.0), (2, 26.0)]) == [0.0, -2.0]

    def test_non_monotonic_rejected(self):
        with pytest.raises(NonMonotonicIndices):
            sqnr_delta([(0, 30.0), (0, 25.0)])
        with pytest.raises(NonMonotonicIndices):
            sqnr_delta([(1, 30.0), (0, 25.0)])

    def test_telescoping_sum(self):
        rng = Lcg(12)
        indices = sorted({int(rng.uniform(0, 100, 1)[0]) for _ in range(20)})
        values = [float(rng.uniform(0, 60, 1)[0]) for _ in indices]
        deltas = sqnr_delta(list(zip(indices, values)))
        total = sum(d * (indices[i] - indices[i - 1]) for i, d in enumerate(deltas) if i > 0)
        assert np.isclose(total, values[-1] - values[0], atol=1e-9)


class TestScalarOracles:
    def test_thousand_seeded_pairs(self):
        rng = Lcg(2024)
        for _ in range(1000):
            n = 4 + int(rng.uniform(0, 28, 1)[0])
            ref = rng.uniform(-5, 5, (n,))
            test = ref + rng.uniform(-0.5, 0.5, (n,))
            for fast, slow in ((sqnr, scalar_sqnr), (mse, scalar_mse), (cosine_similarity, scalar_cosine)):
                a, b = fast(ref, test), slow(ref.tolist(), test.tolist())
                assert abs(a - b) <= 1e-9 * max(1.0, abs(b))

    def test_kl_against_scalar(self):
        rng = Lcg(77)
        for _ in range(100):
            p = [float(rng.uniform(0, 1, 1)[0]) for _ in range(16)]
            q = [float(rng.uniform(0, 1, 1)[0]) for _ in range(16)]
            assert abs(kl_from_histograms(p, q) - scalar_kl(p, q)) <= 1e-9
