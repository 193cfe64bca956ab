import math

import numpy as np
import pytest

from bookpred.readability import (
    INDEX_NAMES,
    apply_scaler,
    ari,
    cli_index,
    fit_scaler,
    fkg,
    fres,
    readability_vector,
    smog,
)
from bookpred.textstats import TextCounts


def counts(W=0, C=0, S=0, L=0, P=0):
    return TextCounts(words=W, characters=C, sentences=S, syllables=L, polysyllables=P)


TOL = 1e-9


class TestIndexValues:
    def test_fres(self):
        assert fres(counts(W=100, S=10, L=150)) == pytest.approx(69.785, abs=TOL)
        assert fres(counts(W=7, S=7, L=7)) == pytest.approx(121.22, abs=TOL)
        assert fres(counts(W=100, S=10, L=200)) == pytest.approx(27.485, abs=TOL)

    def test_fkg(self):
        assert fkg(counts(W=100, S=10, L=150)) == pytest.approx(6.01, abs=TOL)
        assert fkg(counts(W=3, S=3, L=3)) == pytest.approx(-3.4, abs=TOL)
        assert fkg(counts(W=100, S=5, L=170)) == pytest.approx(12.27, abs=TOL)

    def test_smog(self):
        assert smog(counts(S=30, P=30)) == pytest.approx(
            1.0430 * math.sqrt(30.0) + 3.1291, abs=TOL
        )
        assert smog(counts(S=17, P=0)) == pytest.approx(3.1291, abs=TOL)
        assert smog(counts(S=30, P=10)) == pytest.approx(
            1.0430 * math.sqrt(10.0) + 3.1291, abs=TOL
        )

    def test_cli(self):
        assert cli_index(counts(W=100, C=450, S=5)) == pytest.approx(9.18, abs=TOL)
        assert cli_index(counts(W=9, C=9, S=9)) == pytest.approx(-39.52, abs=TOL)
        assert cli_index(counts(W=100, C=500, S=4)) == pytest.approx(12.416, abs=TOL)

    def test_ari(self):
        assert ari(counts(W=100, C=450, S=10)) == pytest.approx(4.765, abs=TOL)
        assert ari(counts(W=4, C=4, S=4)) == pytest.approx(-16.22, abs=TOL)
        assert ari(counts(W=100, C=600, S=5)) == pytest.approx(16.83, abs=TOL)

    def test_vector_order_and_values(self):
        v = readability_vector(counts(W=100, S=10, L=150, C=450, P=5))
        expected = [
            69.785,
            6.01,
            3.1291 + 1.0430 * math.sqrt(15.0),
            7.70,
            4.765,
        ]
        assert v.shape == (5,) and v.dtype == np.float64
        assert np.allclose(v, expected, atol=TOL)
        assert INDEX_NAMES == ("fres", "fkg", "smog", "cli", "ari")

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            fres(counts(W=0, S=1, L=0))
        with pytest.raises(ValueError):
            fres(counts(W=5, S=0, L=5))
        with pytest.raises(ValueError):
            fkg(counts(W=0, S=1))
        with pytest.raises(ValueError):
            smog(counts(S=0, P=3))
        with pytest.raises(ValueError):
            cli_index(counts(W=0, C=0, S=0))
        with pytest.raises(ValueError):
            ari(counts(W=5, C=20, S=0))
        with pytest.raises(ValueError):
            readability_vector(counts())


def random_valid_counts(rng):
    W = int(rng.integers(1, 5000))
    S = int(rng.integers(1, max(2, W // 3 + 1)))
    L = W + int(rng.integers(0, 3 * W))
    C = W + int(rng.integers(0, 9 * W))
    P = int(rng.integers(0, W + 1))
    return counts(W=W, C=C, S=S, L=L, P=P)


class TestIndexProperties:
    def test_scale_invariance_doubling_all_counts(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            c = random_valid_counts(rng)
            doubled = counts(
                W=2 * c.words,
                C=2 * c.characters,
                S=2 * c.sentences,
                L=2 * c.syllables,
                P=2 * c.polysyllables,
            )
            a = readability_vector(c)
            b = readability_vector(doubled)
            assert np.all(np.abs(a - b) < TOL)

    def test_monotonicity_in_syllables(self):
        lo = counts(W=100, S=10, L=120, C=450, P=5)
        hi = counts(W=100, S=10, L=180, C=450, P=5)
        assert fres(hi) < fres(lo)
        assert fkg(hi) > fkg(lo)

    def test_smog_increases_in_polysyllables(self):
        assert smog(counts(S=30, P=20)) > smog(counts(S=30, P=10))


class TestScaler:
    def test_self_scaling_is_standard_normal(self):
        rng = np.random.default_rng(7)
        vectors = np.stack(
            [rng.normal(size=5) * [10, 3, 2, 5, 4] + 50 for _ in range(200)]
        )
        scaler = fit_scaler(vectors)
        scaled = apply_scaler(scaler, vectors)
        assert np.all(np.abs(scaled.mean(axis=0)) < 1e-9)
        assert np.allclose(scaled.std(axis=0), 1.0)

    def test_constant_component_scales_to_zero(self):
        vectors = np.array([[5.0, i, i, i, i] for i in range(4)])
        scaler = fit_scaler(vectors)
        for v in vectors:
            assert apply_scaler(scaler, v)[0] == 0.0

    def test_mean_vector_scales_to_zero(self):
        vectors = np.array([[1.0, 2.0, 3.0, 4.0, 5.0], [3.0, 6.0, 9.0, 12.0, 15.0]])
        scaler = fit_scaler(vectors)
        mean_vec = (vectors[0] + vectors[1]) / 2
        assert np.allclose(apply_scaler(scaler, mean_vec), 0.0)

    def test_two_point_population_std(self):
        # population std of {0, 2} is 1, so the points scale to -1 and +1
        vectors = np.array([[0.0] * 5, [2.0] * 5])
        scaler = fit_scaler(vectors)
        assert np.allclose(apply_scaler(scaler, vectors[0]), -1.0)
        assert np.allclose(apply_scaler(scaler, vectors[1]), 1.0)

    def test_needs_two_vectors(self):
        with pytest.raises(ValueError):
            fit_scaler(np.array([[1.0, 2.0, 3.0, 4.0, 5.0]]))
