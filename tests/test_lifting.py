import numpy as np
import pytest
from pytest import approx

import adawavenet.tensor as T
from adawavenet.lifting import (LiftingLevel, WaveletPyramid, analyze,
                                final_length, lift_forward, lift_inverse, split,
                                synthesize)
from adawavenet.tensor import Tensor, TensorError


def randomize(level, rng, scale=0.5):
    for p in (level.w_p, level.b_p, level.w_u, level.b_u,
              level.w_u_t, level.b_u_t, level.w_p_t, level.b_p_t):
        p.data[...] = rng.normal(0.0, scale, p.data.shape)
    return level


def lift_forward_scalar_oracle(x, level):
    """Literal per-sample transcription of the predict/update equations,
    independent of the vectorized conv path."""
    C, L = x.shape
    if L % 2:
        x = np.concatenate([x, x[:, -1:]], axis=1)
        L += 1
    even, odd = x[:, 0::2], x[:, 1::2]
    K = level.kernel_size
    pl = (K - 1) // 2

    def dwconv(sig, w, b):
        out = np.zeros_like(sig)
        for c in range(C):
            for t in range(sig.shape[1]):
                acc = b.data[c]
                for k in range(K):
                    src = t + k - pl
                    if 0 <= src < sig.shape[1]:
                        acc += w.data[c, k] * sig[c, src]
                out[c, t] = acc
        return out

    detail = odd - np.tanh(dwconv(even, level.w_p, level.b_p))
    approx_ = even + np.tanh(dwconv(detail, level.w_u, level.b_u))
    return approx_, detail


class TestSplit:
    def test_by_definition(self):
        e, o = split(Tensor([[0.0, 1.0, 2.0, 3.0]]))
        assert e.data == approx(np.array([[0.0, 2.0]]))
        assert o.data == approx(np.array([[1.0, 3.0]]))

    def test_constant_series(self):
        e, o = split(Tensor(np.full((2, 6), 3.0)))
        assert np.all(e.data == 3.0) and np.all(o.data == 3.0)

    def test_interleave_round_trip(self, rng):
        x = rng.normal(size=(3, 10))
        e, o = split(Tensor(x))
        assert T.interleave(e, o).data == approx(x)

    def test_odd_length_rejected(self):
        with pytest.raises(TensorError):
            split(Tensor(np.zeros((1, 5))))


class TestLiftForward:
    def test_zero_init_is_passthrough(self, rng):
        x = rng.normal(size=(2, 8))
        level = LiftingLevel(2, 3)
        a, d, padded = lift_forward(Tensor(x), level)
        assert not padded
        assert a.data == approx(x[:, 0::2])
        assert d.data == approx(x[:, 1::2])

    def test_constant_input_zero_init(self):
        level = LiftingLevel(1, 3)
        a, d, _ = lift_forward(Tensor(np.full((1, 8), 2.5)), level)
        assert np.all(a.data == 2.5) and np.all(d.data == 2.5)

    @pytest.mark.parametrize("K,L", [(3, 8), (7, 12), (4, 9), (16, 20)])
    def test_matches_scalar_oracle(self, rng, K, L):
        x = rng.normal(size=(2, L))
        level = randomize(LiftingLevel(2, K), rng)
        a, d, padded = lift_forward(Tensor(x), level)
        assert padded == (L % 2 == 1)
        a_ref, d_ref = lift_forward_scalar_oracle(x, level)
        assert a.data == approx(a_ref)
        assert d.data == approx(d_ref)


class TestTiedInverse:
    @pytest.mark.parametrize("L", [8, 9, 17, 24])
    def test_perfect_reconstruction(self, rng, L):
        x = rng.normal(size=(2, L))
        level = randomize(LiftingLevel(2, 5), rng)
        a, d, padded = lift_forward(Tensor(x), level)
        back = lift_inverse(a, d, level, padded, "tied")
        assert np.abs(back.data - x).max() < 1e-10

    def test_zero_init_is_deinterleave(self, rng):
        a = rng.normal(size=(1, 4))
        d = rng.normal(size=(1, 4))
        out = lift_inverse(Tensor(a), Tensor(d), LiftingLevel(1, 3), False, "tied")
        assert out.data[:, 0::2] == approx(a)
        assert out.data[:, 1::2] == approx(d)


class TestLearnedInverse:
    def test_zero_init_is_interleave(self, rng):
        a = rng.normal(size=(2, 5))
        d = rng.normal(size=(2, 5))
        out = lift_inverse(Tensor(a), Tensor(d), LiftingLevel(2, 3), False,
                           "learned")
        assert out.data[:, 0::2] == approx(a)
        assert out.data[:, 1::2] == approx(d)

    def test_output_length_law(self, rng):
        a = rng.normal(size=(1, 6))
        d = rng.normal(size=(1, 6))
        level = LiftingLevel(1, 3)
        for mode in ("tied", "learned"):
            assert lift_inverse(Tensor(a), Tensor(d), level, False,
                                mode).shape == (1, 12)
            assert lift_inverse(Tensor(a), Tensor(d), level, True,
                                mode).shape == (1, 11)

    def test_matches_scalar_oracle(self, rng):
        a = rng.normal(size=(1, 6))
        d = rng.normal(size=(1, 6))
        level = randomize(LiftingLevel(1, 3), rng)
        out = lift_inverse(Tensor(a), Tensor(d), level, False, "learned")

        # literal transcription of the inverse update/predict equations,
        # using the adjoint correlation the transposed conv implements
        def dwconv_t(sig, w, b):
            ref = np.zeros_like(sig)
            K = level.kernel_size
            pl = (K - 1) // 2
            for t in range(sig.shape[1]):
                for k in range(K):
                    dst = t + k - pl
                    if 0 <= dst < sig.shape[1]:
                        ref[0, dst] += w.data[0, k] * sig[0, t]
            return ref + b.data[0]

        e_ref = a - np.tanh(dwconv_t(d, level.w_u_t, level.b_u_t))
        o_ref = d + np.tanh(dwconv_t(e_ref, level.w_p_t, level.b_p_t))
        assert out.data[:, 0::2] == approx(e_ref)
        assert out.data[:, 1::2] == approx(o_ref)


class TestCascade:
    def test_shape_law_single_level(self, rng):
        levels = [LiftingLevel(1, 3)]
        pyr = analyze(Tensor(rng.normal(size=(1, 8))), levels)
        assert pyr.approx.shape == (1, 4)
        assert pyr.details[0].shape == (1, 4)

    def test_shape_law_three_levels(self, rng):
        levels = [LiftingLevel(1, 3) for _ in range(3)]
        pyr = analyze(Tensor(rng.normal(size=(1, 96))), levels)
        assert pyr.approx.shape == (1, 12)
        assert [d.shape[-1] for d in pyr.details] == [48, 24, 12]

    def test_element_count_conservation(self, rng):
        for L in (96, 100, 89):
            levels = [randomize(LiftingLevel(2, 5), rng) for _ in range(3)]
            pyr = analyze(Tensor(rng.normal(size=(2, L))), levels)
            count = pyr.approx.size + sum(d.size for d in pyr.details)
            pad_correction = 0
            cur = L
            for flag in pyr.pad_flags:
                if flag:
                    pad_correction += 2  # one padded sample per channel
                cur = (cur + 1) // 2
            assert count == 2 * L + pad_correction

    def test_too_many_levels_rejected(self, rng):
        levels = [LiftingLevel(1, 3) for _ in range(4)]
        with pytest.raises(TensorError):
            analyze(Tensor(rng.normal(size=(1, 16))), levels)

    def test_final_length_is_the_cascade_length(self, rng):
        for length in (1, 2, 5, 16, 17, 96, 97):
            x = Tensor(rng.normal(size=(1, length)))
            for n in range(4):
                assert final_length(length, n) == x.shape[-1]
                x = lift_forward(x, LiftingLevel(1, 3))[0]
        assert final_length(96, 10**9) == 1

    def test_tied_round_trip(self, rng):
        for L in (96, 89):
            levels = [randomize(LiftingLevel(2, 7), rng) for _ in range(3)]
            x = rng.normal(size=(2, L))
            pyr = analyze(Tensor(x), levels)
            back = synthesize(pyr, levels, mode="tied")
            assert np.abs(back.data - x).max() < 1e-10

    def test_learned_zero_init_round_trip(self, rng):
        levels = [LiftingLevel(2, 7) for _ in range(3)]
        x = rng.normal(size=(2, 96))
        pyr = analyze(Tensor(x), levels)
        back = synthesize(pyr, levels, mode="learned")
        assert np.abs(back.data - x).max() < 1e-12

    def test_level_count_mismatch_rejected(self, rng):
        levels = [randomize(LiftingLevel(1, 3), rng) for _ in range(2)]
        pyr = analyze(Tensor(rng.normal(size=(1, 32))), levels)
        with pytest.raises(TensorError):
            synthesize(WaveletPyramid(pyr.approx, pyr.details[:1], pyr.pad_flags[:1]),
                       levels)

    def test_unknown_inverse_mode_rejected(self, rng):
        levels = [LiftingLevel(1, 3)]
        pyr = analyze(Tensor(rng.normal(size=(1, 16))), levels)
        with pytest.raises(TensorError, match="inverse mode"):
            synthesize(pyr, levels, mode="bogus")

    def test_eq9_literal_ignored_in_tied_mode(self, rng):
        level = randomize(LiftingLevel(1, 3), rng)
        a, d, padded = lift_forward(Tensor(rng.normal(size=(1, 9))), level)
        plain = lift_inverse(a, d, level, padded, "tied")
        literal = lift_inverse(a, d, level, padded, "tied", eq9_literal=True)
        assert np.array_equal(plain.data, literal.data)

    def test_gradients_reach_every_kernel(self, rng):
        levels = [LiftingLevel(2, 5) for _ in range(2)]
        x = Tensor(rng.normal(size=(2, 32)))
        pyr = analyze(x, levels)
        back = synthesize(pyr, levels, mode="learned")
        loss = T.mse(back, Tensor(rng.normal(size=(2, 32))))
        loss.backward()
        for level in levels:
            assert level.w_p.grad is not None and np.any(level.w_p.grad != 0)
            assert level.w_u.grad is not None and np.any(level.w_u.grad != 0)

    def test_eq9_literal_variant_shifts_output_by_details(self, rng):
        level = LiftingLevel(1, 3)
        a = rng.normal(size=(1, 4))
        d = rng.normal(size=(1, 4))
        plain = lift_inverse(Tensor(a), Tensor(d), level, False, "learned")
        literal = lift_inverse(Tensor(a), Tensor(d), level, False, "learned",
                               eq9_literal=True)
        assert literal.data[:, 0::2] == approx(plain.data[:, 0::2] - d)
