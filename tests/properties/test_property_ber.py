"""Statistical properties of the fault instrument, at fixed seeds.

* Where at most 30 flips are expected, ``faults_for_ber`` counts fit
  Binomial(bits, BER).  Two exact two-sided binomial tests check it: the
  number of draws at or below the distribution's median (the location) and
  the number inside its central half (the spread, which a constant count
  fails).
* Above 30 expected flips, ``faults_for_ber`` returns ``round(bits × BER)``
  and draws nothing, with the boundary at exactly 30 expected flips.
* ``random_bit_positions`` is uniform over the 8- and 16-bit code widths,
  by a chi-square test against a hard-coded critical value.

Only the standard library does the statistics: probabilities come from
``math.comb``.
"""

import math

import numpy as np
import pytest

from repro.quant.datatypes import resolve_datatype
from repro.utils.bitops import faults_for_ber, random_bit_positions

#: Significance level of every test; the seeds are fixed, so a pass is stable.
ALPHA = 1e-3
#: faults_for_ber calls per (bits, BER) case.
DRAWS = 400
#: (bits, BER) cases with at most 30 expected flips; the last sits on the boundary.
BINOMIAL_CASES = [(64, 0.1), (1024, 0.02), (3616, 0.005), (452 * 16, 0.001), (60, 0.5)]
#: chi-square critical values at ALPHA by degrees of freedom (7 and 15).
CHI_SQUARE_CRITICAL = {7: 24.322, 15: 37.697}


def binomial_pmf(n, p):
    """``P(X = k)`` for X ~ Binomial(n, p), from ``math.comb``, for k = 0, 1, ...

    The list stops 12 standard deviations (plus 40) above the mean: the
    mass it leaves out is below 1e-30, under double precision at p ~ 1.
    """
    top = min(n, int(n * p + 12 * math.sqrt(n * p * (1 - p)) + 40))
    log_p, log_q = math.log(p), math.log1p(-p)
    return [math.exp(math.log(math.comb(n, k)) + k * log_p + (n - k) * log_q)
            for k in range(top + 1)]


def exact_two_sided_p(observed, n, p):
    """The exact binomial test: the mass of every outcome no likelier than ``observed``."""
    pmf = binomial_pmf(n, p)
    cutoff = (pmf[observed] if observed < len(pmf) else 0.0) * (1.0 + 1e-7)
    return min(1.0, sum(mass for mass in pmf if mass <= cutoff))


def binomial_fit_p_values(counts, bits, ber):
    """Exact p-values of the counts' location and spread under Binomial(bits, BER)."""
    pmf = binomial_pmf(bits, ber)
    cumulative = np.cumsum(pmf)
    median = int(np.searchsorted(cumulative, 0.5))
    mean = bits * ber

    top = len(pmf) - 1

    def central_mass(width):
        low, high = max(0, math.ceil(mean - width)), min(top, math.floor(mean + width))
        return float(cumulative[high] - (cumulative[low - 1] if low else 0.0))

    # The central interval around the mean whose mass is closest to one half.
    width = min(range(top + 1), key=lambda w: abs(central_mass(w) - 0.5))
    counts = np.asarray(counts)
    below = int(np.count_nonzero(counts <= median))
    central = int(np.count_nonzero(np.abs(counts - mean) <= width))
    return (
        exact_two_sided_p(below, len(counts), float(cumulative[median])),
        exact_two_sided_p(central, len(counts), central_mass(width)),
    )


@pytest.mark.parametrize("bits, ber", BINOMIAL_CASES)
def test_counts_fit_the_binomial_where_at_most_30_flips_are_expected(bits, ber):
    assert bits * ber <= 30
    rng = np.random.default_rng(bits)
    counts = [faults_for_ber(bits, ber, rng) for _ in range(DRAWS)]
    location, spread = binomial_fit_p_values(counts, bits, ber)
    assert location > ALPHA and spread > ALPHA


def test_the_fit_rejects_a_wrong_rate_and_a_constant_count():
    bits, ber = 1024, 0.02
    rng = np.random.default_rng(0)
    shifted = [faults_for_ber(bits, 1.5 * ber, rng) for _ in range(DRAWS)]
    assert binomial_fit_p_values(shifted, bits, ber)[0] < ALPHA
    constant = [round(bits * ber)] * DRAWS
    assert binomial_fit_p_values(constant, bits, ber)[1] < ALPHA


@pytest.mark.parametrize(
    "bits, ber, expected",
    [
        (60, math.nextafter(0.5, 1.0), 30),
        (121, 0.25, 30),
        (3616, 0.02, 72),
        (452 * 8, 0.1, 362),
        (10_000, 0.5, 5000),
        (1000, 1.0, 1000),
    ],
)
def test_above_30_expected_flips_the_count_is_rounded_without_a_draw(bits, ber, expected):
    assert bits * ber > 30
    rng = np.random.default_rng(1)
    before = rng.bit_generator.state
    assert faults_for_ber(bits, ber, rng) == expected == round(bits * ber)
    assert rng.bit_generator.state == before


def test_exactly_30_expected_flips_still_draws():
    assert 60 * 0.5 == 30
    rng = np.random.default_rng(1)
    before = rng.bit_generator.state
    counts = {faults_for_ber(60, 0.5, rng) for _ in range(20)}
    assert rng.bit_generator.state != before
    assert len(counts) > 1


def chi_square(positions, width):
    observed = np.bincount(positions, minlength=width)
    expected = len(positions) / width
    return float(((observed - expected) ** 2 / expected).sum())


def test_code_widths_are_8_and_16_bits():
    widths = {name: resolve_datatype(name).bit_width
              for name in ("int8", "Q(1,2,5)", "Q(1,7,8)", "Q(1,4,11)")}
    assert widths == {"int8": 8, "Q(1,2,5)": 8, "Q(1,7,8)": 16, "Q(1,4,11)": 16}


@pytest.mark.parametrize("width", [8, 16])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_bit_positions_are_uniform(width, seed):
    rng = np.random.default_rng(seed)
    positions = random_bit_positions(rng, 2000 * width, width)
    assert positions.dtype == np.int64
    assert positions.min() >= 0 and positions.max() < width
    assert chi_square(positions, width) < CHI_SQUARE_CRITICAL[width - 1]


@pytest.mark.parametrize("width", [8, 16])
def test_the_chi_square_rejects_a_skewed_position_draw(width):
    rng = np.random.default_rng(0)
    positions = random_bit_positions(rng, 2000 * width, width)
    skewed = np.where(positions == 0, 1, positions)
    assert chi_square(skewed, width) > CHI_SQUARE_CRITICAL[width - 1]
