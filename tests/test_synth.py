import numpy as np
import pytest
from pytest import approx

import adawavenet.synth as S
from adawavenet.config import ConfigError
from adawavenet.synth import SynthSpec, denoised_target, generate


class TestCleanSignal:
    def test_simple_closed_form_at_endpoints(self):
        """At t=0 every sine vanishes and the trend is zero; at t=1 the
        envelope and trend take known closed-form values."""
        x = denoised_target(SynthSpec())[0]
        assert x[0] == approx(0.0, abs=1e-12)
        t = 1.0
        expected = (np.sin(2 * np.pi * 5 * t)
                    + np.sin(2 * np.pi * 50 * t) * np.exp(-50 * (t - 0.5) ** 2)
                    + 1.0 * t)
        assert x[-1] == approx(expected, abs=1e-9)

    def test_simple_midpoint_envelope_is_unity(self):
        """At t = t0 = 0.5 the Gaussian envelope equals one exactly."""
        x = denoised_target(SynthSpec(n_points=1025))[0]
        t = 0.5
        expected = np.sin(2 * np.pi * 5 * t) + np.sin(2 * np.pi * 50 * t) + 0.5
        assert x[512] == approx(expected, abs=1e-9)

    def test_pointwise_formula_oracle(self):
        spec = SynthSpec(f1=3.0)
        x = denoised_target(spec)[0]
        t = np.linspace(0, 1, spec.n_points)
        ref = (np.sin(2 * np.pi * 3 * t)
               + np.sin(2 * np.pi * 50 * t) * np.exp(-50 * (t - 0.5) ** 2)
               + 1.0 * t)
        assert x == approx(ref)

    def test_other_families_pointwise_formula(self):
        t = np.linspace(0, 1, 1024)
        traffic = denoised_target(SynthSpec(family="traffic"))[0]
        assert traffic == approx(np.sin(2 * np.pi * 24 * t)
                                 + 0.5 * np.sin(4 * np.pi * 24 * t)
                                 + np.sin(2 * np.pi * 7 * t) + 0.5 * t)
        elec = denoised_target(SynthSpec(family="electricity"))[0]
        assert elec == approx(5 * np.sin(2 * np.pi * t) + 2 * np.sin(4 * np.pi * t)
                              + 3 * np.sin(2 * np.pi * 365 * t) + 2 * t)

    def test_unknown_family_rejected(self):
        with pytest.raises(ConfigError, match="lorenz"):
            SynthSpec(family="lorenz")


def test_negative_seed_rejected():
    with pytest.raises(ConfigError, match="seed"):
        SynthSpec(seed=-1)


class TestNoise:
    def test_noiseless_matches_denoised(self, monkeypatch):
        monkeypatch.setattr(S, "NOISE_STD", 0.0)
        spec = SynthSpec()
        assert np.array_equal(generate(spec), denoised_target(spec))

    def test_shape_and_determinism(self):
        spec = SynthSpec(seed=4)
        a, b = generate(spec), generate(spec)
        assert a.shape == (1, 1024)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        assert not np.array_equal(generate(SynthSpec(seed=0)),
                                  generate(SynthSpec(seed=1)))

    def test_noise_statistics(self):
        spec = SynthSpec(n_points=200000, seed=2)
        noise = generate(spec) - denoised_target(spec)
        assert noise.mean() == approx(0.0, abs=0.002)
        assert noise.std() == approx(0.1, rel=0.02)


class TestDistributionShifts:
    def test_variance_shift_scales_tail_noise(self):
        base = SynthSpec(n_points=100000, shift_onset=50000, seed=7)
        shifted = SynthSpec(n_points=100000, shift_onset=50000, seed=7,
                            variance_shift=1.0)
        n0 = (generate(base) - denoised_target(base))[0]
        n1 = (generate(shifted) - denoised_target(shifted))[0]
        # untouched head, doubled amplitude tail
        assert np.array_equal(n0[:50000], n1[:50000])
        assert n1[50000:].std() / n0[50000:].std() == approx(2.0, rel=1e-9)

    def test_step_change_adds_constant_after_onset(self):
        base = SynthSpec(seed=3, shift_onset=512)
        stepped = SynthSpec(seed=3, shift_onset=512, step_change=0.5)
        a, b = generate(base)[0], generate(stepped)[0]
        assert np.array_equal(a[:512], b[:512])
        assert b[512:] - a[512:] == approx(np.full(512, 0.5))

    def test_denoised_target_ignores_shifts(self):
        plain = denoised_target(SynthSpec())
        shifted = denoised_target(SynthSpec(variance_shift=2.0, step_change=0.5))
        assert np.array_equal(plain, shifted)
