import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hierstream.scoring.histogram import (
    HistogramConfig,
    histogram_expectation,
    histogram_expectations,
    histogram_target,
    histogram_targets,
)
from oracles import quadrature_histogram, scalar_histogram_target

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


class TestHistogramConfig:
    def test_cached_arrays_match_formula_and_are_read_only(self):
        for bins in (1, 7, 10):
            cfg = HistogramConfig(bins=bins)
            edges = np.arange(bins + 1, dtype=np.float64) / bins
            np.testing.assert_array_equal(cfg.edges, edges)
            np.testing.assert_array_equal(cfg.centers, (edges[:-1] + edges[1:]) / 2.0)
            assert cfg.centers is cfg.centers
            with pytest.raises(ValueError):
                cfg.edges[0] = 1.0
            with pytest.raises(ValueError):
                cfg.centers[0] = 1.0


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

    def test_rejects_decode_outside_unit_interval(self):
        # Sums to one, but a negative bin pushes the expectation to 1.4.
        dist = np.zeros(10)
        dist[0], dist[-1] = -0.5, 1.5
        with pytest.raises(ValueError, match=r"decodes to 1\.4\d*, outside \[0, 1\]"):
            histogram_expectation(dist, CFG)


def test_config_validation():
    with pytest.raises(ValueError):
        HistogramConfig(bins=0)
    with pytest.raises(ValueError):
        HistogramConfig(sigma=0.0)
    edges = HistogramConfig(bins=4).edges
    np.testing.assert_allclose(edges, [0.0, 0.25, 0.5, 0.75, 1.0])


@pytest.mark.parametrize("sigma", [float("nan"), float("inf"), 0.0, -1.0])
def test_config_rejects_sigma_not_positive_and_finite(sigma):
    with pytest.raises(ValueError, match=f"sigma must be positive, got {sigma}"):
        HistogramConfig(sigma=sigma)


@pytest.mark.parametrize("cfg", [CFG, HistogramConfig(bins=7, sigma=0.05), HistogramConfig(bins=20, sigma=0.3)])
def test_rows_equal_scalar_targets_bit_for_bit(cfg):
    p = np.concatenate([[0.0, 1.0, 0.5], np.random.default_rng(1).uniform(0, 1, 200)])
    rows = histogram_targets(p, cfg)
    assert rows.shape == (len(p), cfg.bins)
    for value, row in zip(p.tolist(), rows):
        np.testing.assert_array_equal(row, scalar_histogram_target(value, cfg))
        np.testing.assert_array_equal(histogram_target(value, cfg), row)


@pytest.mark.parametrize("bad", [np.nan, -1e-9, 1.5])
def test_rows_reject_progress_outside_unit_interval(bad):
    with pytest.raises(ValueError, match="progress must lie in"):
        histogram_targets(np.array([0.2, bad]), CFG)


def test_no_rows_for_no_values():
    assert histogram_targets(np.zeros(0), CFG).shape == (0, CFG.bins)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), bins=st.integers(1, 32), n=st.integers(0, 12))
def test_block_decode_equals_row_decode_bit_for_bit(data, bins, n):
    cfg = HistogramConfig(bins=bins)

    def dist():
        if data.draw(st.booleans()):  # one-hot
            row = np.zeros(bins)
            row[data.draw(st.integers(0, bins - 1))] = 1.0
            return row
        w = np.array(data.draw(st.lists(st.just(0.0) | st.floats(0, 1), min_size=bins, max_size=bins)))
        assume(w.sum() > 0)
        return w / w.sum()

    # Laid out as read_scores slices a file: timestamp, 3 state cells, step bins, substep bins.
    table = np.zeros((n, 4 + 2 * bins))
    for row in table:
        row[4:4 + bins], row[4 + bins:] = dist(), dist()
    for block in (table[:, 4:4 + bins], table[:, 4 + bins:]):
        want = np.array([histogram_expectation(row, cfg) for row in block], dtype=np.float64)
        got = histogram_expectations(block, cfg)
        assert got.dtype == np.float64 and got.shape == (n,)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("shape", [(4, 9), (4, 11), (10,), (2, 10, 1)])
def test_block_decode_rejects_other_bin_counts(shape):
    with pytest.raises(ValueError, match=r"expected 10 bins per row"):
        histogram_expectations(np.full(shape, 0.1), CFG)
