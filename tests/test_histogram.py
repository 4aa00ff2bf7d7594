import numpy as np
import pytest

from hierstream.scoring.histogram import (
    HistogramConfig,
    histogram_expectation,
    histogram_target,
)
from oracles import quadrature_histogram

CFG = HistogramConfig(bins=10, sigma=0.15)


class TestHistogramTarget:
    def test_symmetric_at_half(self):
        target = histogram_target(0.5, CFG)
        assert target[4] == pytest.approx(target[5], abs=1e-12)
        for i in range(10):
            assert target[i] == pytest.approx(target[9 - i], abs=1e-12)

    def test_sums_to_one(self):
        for p in np.linspace(0.0, 1.0, 23):
            assert abs(histogram_target(float(p), CFG).sum() - 1.0) <= 1e-9

    def test_matches_quadrature_oracle(self):
        target = histogram_target(0.5, CFG)
        oracle = quadrature_histogram(0.5, bins=10, sigma=0.15)
        assert target[4] == pytest.approx(oracle[4], abs=1e-9)
        np.testing.assert_allclose(target, oracle, atol=1e-9)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            histogram_target(1.2, CFG)
        with pytest.raises(ValueError):
            histogram_target(-0.1, CFG)

    def test_mass_concentration(self):
        # At least 99% of mass within 3 sigma of p, away from the edges.
        centers = CFG.centers
        for p in np.linspace(0.1, 0.9, 17):
            target = histogram_target(float(p), CFG)
            near = np.abs(centers - p) <= 3 * CFG.sigma
            assert target[near].sum() >= 0.99


class TestHistogramExpectation:
    def test_one_hot_gives_center(self):
        for i in range(10):
            dist = np.zeros(10)
            dist[i] = 1.0
            assert histogram_expectation(dist, CFG) == pytest.approx(CFG.centers[i])

    def test_nan_distribution_rejected(self):
        dist = np.full(10, 0.1)
        dist[3] = np.nan
        with pytest.raises(ValueError, match="sums to nan"):
            histogram_expectation(dist, CFG)

    def test_uniform_gives_half(self):
        assert histogram_expectation(np.full(10, 0.1), CFG) == pytest.approx(0.5)

    def test_round_trip_tight_away_from_edges(self):
        for p in (0.3, 0.4, 0.5, 0.6, 0.7):
            decoded = histogram_expectation(histogram_target(p, CFG), CFG)
            assert decoded == pytest.approx(p, abs=0.02)

    def test_round_trip_edge_bias_is_the_truncation_shift(self):
        # Near the support edges the renormalized truncated Gaussian pulls
        # the mean inward; the decoded value must match the quadrature
        # oracle, and the bias equals the known truncated-normal shift.
        for p, frozen in ((0.1, 0.16649), (0.2, 0.22807), (0.8, 0.77193), (0.9, 0.83351)):
            decoded = histogram_expectation(histogram_target(p, CFG), CFG)
            oracle = quadrature_histogram(p, bins=10, sigma=0.15, points_per_bin=100_000)
            assert decoded == pytest.approx(float(oracle @ CFG.centers), abs=1e-6)
            assert decoded == pytest.approx(frozen, abs=5e-6)

    def test_round_trip_against_quadrature(self):
        oracle = quadrature_histogram(0.7, bins=10, sigma=0.15)
        decoded = histogram_expectation(oracle / oracle.sum(), CFG)
        assert decoded == pytest.approx(0.7, abs=0.02)
        assert histogram_expectation(histogram_target(0.7, CFG), CFG) == pytest.approx(
            decoded, abs=1e-6
        )

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            histogram_expectation(np.full(10, 0.2), CFG)


def test_config_validation():
    with pytest.raises(ValueError):
        HistogramConfig(bins=0)
    with pytest.raises(ValueError):
        HistogramConfig(sigma=0.0)
    edges = HistogramConfig(bins=4).edges
    np.testing.assert_allclose(edges, [0.0, 0.25, 0.5, 0.75, 1.0])
