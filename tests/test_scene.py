from __future__ import annotations

import numpy as np
import pytest

from audiomlp.scene import (
    ALGORITHMS,
    SCENE_FRAMES,
    linear_interp_time,
    num_interp_steps,
    reduce_iterative,
    reduce_mean,
    reduce_single,
    scene_embedding,
)


def interp_oracle(x: np.ndarray, target_len: int) -> np.ndarray:
    """Per-element reference: same math, written as an explicit loop."""
    n = len(x)
    out = np.empty((target_len,) + x.shape[1:], dtype=np.float64)
    for j in range(target_len):
        c = (j + 0.5) * (n / target_len) - 0.5
        c = min(max(c, 0.0), float(n - 1))
        lo = int(np.floor(c))
        hi = min(lo + 1, n - 1)
        f = c - lo
        out[j] = x[lo] * (1.0 - f) + x[hi] * f
    return out


def steps_oracle(n: int, target: int) -> int:
    """Smallest k with n <= target * 2**k, i.e. ceil(log2(n/target))."""
    k = 0
    while n > target * (1 << k):
        k += 1
    return k


class TestLinearInterp:
    def test_identity_is_exact_copy(self):
        x = np.arange(98.0).reshape(98, 1) * np.pi
        out = linear_interp_time(x, 98)
        assert out.tobytes() == x.tobytes()
        out[0] = -1.0
        assert x[0, 0] == 0.0

    def test_downsample_by_two(self):
        out = linear_interp_time(np.array([0.0, 1.0, 2.0, 3.0]), 2)
        np.testing.assert_array_equal(out, [0.5, 2.5])

    def test_upsample_by_two(self):
        out = linear_interp_time(np.array([0.0, 1.0]), 4)
        np.testing.assert_array_equal(out, [0.0, 0.25, 0.75, 1.0])

    def test_constant_preserved(self):
        out = linear_interp_time(np.full(37, 0.1), 11)
        np.testing.assert_allclose(out, 0.1, atol=1e-12)

    def test_matches_oracle_randomized(self):
        rng = np.random.default_rng(20)
        for _ in range(200):
            n = int(rng.integers(1, 65))
            m = int(rng.integers(1, 65))
            x = rng.standard_normal((n, int(rng.integers(1, 5))))
            got = linear_interp_time(x, m)
            np.testing.assert_allclose(got, interp_oracle(x, m), atol=1e-6)

    def test_float32_stays_float32(self):
        out = linear_interp_time(np.ones((10, 3), dtype=np.float32), 4)
        assert out.dtype == np.float32

    def test_rejects_bad_target(self):
        with pytest.raises(ValueError):
            linear_interp_time(np.ones(4), 0)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            linear_interp_time(np.ones((0, 3)), 4)


class TestNumInterpSteps:
    @pytest.mark.parametrize(
        "n,target,expected",
        [(100, 16, 3), (16, 16, 0), (490, 16, 5), (98, 16, 3), (1600, 16, 7), (1, 16, 0), (17, 16, 1), (16, 1, 4)],
    )
    def test_pinned_values(self, n, target, expected):
        assert num_interp_steps(n, target) == expected

    def test_matches_ceil_log2_oracle(self):
        for n in range(1, 301):
            for target in range(1, 21):
                assert num_interp_steps(n, target) == steps_oracle(n, target)

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            num_interp_steps(0, 16)
        with pytest.raises(ValueError):
            num_interp_steps(98, 0)


class TestReducers:
    def test_mean_group_bounds(self):
        ts = np.arange(98.0)[:, None]
        out = reduce_mean(ts, 16)
        expected = []
        for j in range(16):
            lo, hi = (j * 98) // 16, ((j + 1) * 98) // 16
            expected.append(np.mean(np.arange(98.0)[lo:hi]))
        np.testing.assert_allclose(out[:, 0], expected, atol=1e-12)

    def test_mean_group_sizes(self):
        # 98 into 16 groups: fourteen 6s with 7s at groups 7 and 15
        sizes = [((j + 1) * 98) // 16 - (j * 98) // 16 for j in range(16)]
        assert sorted(sizes) == [6] * 14 + [7, 7]
        assert sizes[7] == 7 and sizes[15] == 7

    def test_mean_rejects_too_few_frames(self):
        with pytest.raises(ValueError):
            reduce_mean(np.ones((10, 4)), 16)

    def test_single_pass_pinned_value(self):
        ts = np.arange(98.0)[:, None]
        out = reduce_single(ts, 16)
        assert out[0, 0] == pytest.approx(2.5625, abs=1e-12)

    def test_iterative_schedule_98(self):
        # passes visit 49, 25, then clamp to 16
        ts = np.random.default_rng(21).standard_normal((98, 4))
        expected = ts
        for m in (49, 25, 16):
            expected = linear_interp_time(expected, m)
        np.testing.assert_array_equal(reduce_iterative(ts, 16), expected)

    def test_iterative_pass_count_matches_num_interp_steps(self, monkeypatch):
        passes = []

        def counted(x, target_len):
            passes.append(target_len)
            return linear_interp_time(x, target_len)

        monkeypatch.setattr("audiomlp.scene.linear_interp_time", counted)
        for n in range(17, 2001):
            passes.clear()
            reduce_iterative(np.zeros((n, 1)), 16)
            assert len(passes) == num_interp_steps(n, 16), n
            assert passes[-1] == 16 and all(a > b for a, b in zip(passes, passes[1:])), n

    def test_iterative_upsamples_in_one_pass(self):
        ts = np.random.default_rng(22).standard_normal((10, 4))
        np.testing.assert_array_equal(reduce_iterative(ts, 16), linear_interp_time(ts, 16))

    def test_equal_length_identity_for_all(self):
        ts = np.random.default_rng(23).standard_normal((16, 64))
        for fn in (reduce_mean, reduce_single, reduce_iterative):
            np.testing.assert_array_equal(fn(ts, 16), ts)


class TestSceneEmbedding:
    def test_shapes_all_algorithms(self):
        ts = np.random.default_rng(24).standard_normal((98, 64)).astype(np.float32)
        for algo in ALGORITHMS:
            emb = scene_embedding(ts, algo)
            assert emb.shape == (SCENE_FRAMES * 64,)
            assert emb.dtype == np.float32

    def test_flatten_is_time_major(self):
        ts = np.random.default_rng(25).standard_normal((16, 64))
        emb = scene_embedding(ts, "single")
        for k in (0, 63, 64, 1000):
            assert emb[k] == ts[k // 64, k % 64]

    def test_algorithms_disagree_on_structured_input(self):
        ts = np.zeros((98, 64))
        ts[3] = 1.0  # one hot frame: direct stride misses it differently
        single = scene_embedding(ts, "single")
        iterative = scene_embedding(ts, "iterative")
        assert not np.allclose(single, iterative)

    def test_rejects_unknown_algorithm(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            scene_embedding(np.ones((98, 64)), "fancy")

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            scene_embedding(np.ones(98), "single")
