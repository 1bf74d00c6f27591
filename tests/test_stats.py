import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from scipy import special as sp_special
from scipy import stats as sp_stats

from fragilis import _rng
from fragilis.datasets import resolve_dist
from fragilis.errors import ComputeError, DegenerateSampleError, InputError
from fragilis.stats import (
    EXACT_U_LIMIT,
    DensityTrace,
    f_sf,
    kde,
    mann_whitney_u,
    one_way_f,
    overrun_bias_samples,
    regularized_incomplete_beta,
    silverman_bandwidth,
    trend_f,
)

from conftest import mwu_enumeration_oracle, u_pairwise

# ---------------------------------------------------------------------------
# KDE


def test_kde_single_point_kernel_identity():
    trace = kde([1.27], bandwidth=0.1)
    peak = max(trace.density)
    expected = 1.0 / (0.1 * math.sqrt(2 * math.pi))
    assert peak == pytest.approx(expected, abs=2e-3)
    grid_step = trace.grid[1] - trace.grid[0]
    argmax = trace.grid[trace.density.index(peak)]
    assert abs(argmax - 1.27) <= grid_step


def test_kde_symmetry():
    trace = kde([1.2, 1.8], bandwidth=0.15)
    dens = trace.density
    assert all(
        abs(a - b) < 1e-9 for a, b in zip(dens, reversed(dens))
    )
    mid = 0.5 * (trace.grid[0] + trace.grid[-1])
    assert mid == pytest.approx(1.5, abs=1e-12)


def _kde_oracle(sample, bandwidth, grid):
    out = []
    for g in grid:
        total = 0.0
        for x in sample:
            z = (g - x) / bandwidth
            total += math.exp(-0.5 * z * z)
        out.append(total / (len(sample) * bandwidth * math.sqrt(2 * math.pi)))
    return out


def test_kde_five_point_kernel_sum_oracle():
    sample = [1.0, 1.3, 1.9, 2.4, 3.3]
    trace = kde(sample, bandwidth=0.25)
    oracle = _kde_oracle(sample, 0.25, trace.grid)
    assert max(abs(a - b) for a, b in zip(trace.density, oracle)) < 1e-12


def test_kde_integrates_to_one():
    rng = np.random.default_rng(8)
    for _ in range(20):
        sample = list(rng.lognormal(0.2, 0.5, size=int(rng.integers(2, 60))))
        trace = kde(sample)
        g, d = np.asarray(trace.grid), np.asarray(trace.density)
        integral = float(np.sum(0.5 * (d[1:] + d[:-1]) * np.diff(g)))
        assert 0.99 <= integral <= 1.01
        assert min(trace.density) >= 0.0


def test_kde_location_equivariance():
    rng = np.random.default_rng(12)
    sample = list(rng.uniform(1.0, 2.5, size=25))
    shifted = [x + 5.0 for x in sample]
    a = kde(sample)
    b = kde(shifted)
    assert b.bandwidth == pytest.approx(a.bandwidth, rel=1e-12)
    assert max(abs(x - y) for x, y in zip(a.density, b.density)) < 1e-12
    assert all(abs((gb - ga) - 5.0) < 1e-9 for ga, gb in zip(a.grid, b.grid))


def test_kde_zero_variance_demands_bandwidth():
    with pytest.raises(DegenerateSampleError, match="bandwidth"):
        kde([2.0, 2.0, 2.0])
    trace = kde([2.0, 2.0, 2.0], bandwidth=0.5)
    assert isinstance(trace, DensityTrace)


def test_kde_rejects_non_finite_sample():
    for bad in (math.nan, math.inf):
        with pytest.raises(InputError, match="non-finite") as info:
            kde([1.0, bad, 2.0, 3.0])
        assert type(info.value) is InputError
        with pytest.raises(InputError, match="non-finite"):
            kde([1.0, bad, 2.0, 3.0], bandwidth=0.5)
        with pytest.raises(InputError, match="non-finite"):
            silverman_bandwidth([bad])


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_kde_overflowing_spread_demands_bandwidth():
    # the squared deviations pass the float range, so Silverman's rule has no scale
    for sample in ([1e308, -1e308, 0.0], [1.0, 2e300, 1.0, 2e300]):
        with pytest.raises(ComputeError, match="spread overflows.*explicit bandwidth") as info:
            kde(sample)
        assert type(info.value) is ComputeError
        with pytest.raises(ComputeError, match="spread overflows"):
            silverman_bandwidth(sample)
    assert kde([1.0, 2e300, 1.0, 2e300], bandwidth=1e299).bandwidth == 1e299


def test_kde_tiny_bandwidth_is_input_error():
    # 1 / (h * sqrt(2 pi)) overflows: every density near a data point would be inf
    with pytest.raises(InputError, match="too small for a finite density"):
        kde([1.0, 2.0, 3.0], bandwidth=1e-310)


def test_kde_normalizer_overflow_is_input_error():
    # n * h * sqrt(2 pi) overflows: every density would divide to 0.0, where the true
    # peak (about 4e-307 here) is a normal float
    with pytest.raises(InputError, match="overflows the density's normalizer"):
        kde([1.0] * 1000, bandwidth=1e306)
    assert max(kde([1.0] * 10, bandwidth=1e306).density) > 0


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_kde_far_apart_sample_does_not_warn():
    # z * z overflows between grid points and data; exp(-inf) = 0 is the right density
    trace = kde([2e300, 2.1e300, 1.9e300, 2.05e300], bandwidth=1.0)
    peak = 1.0 / (4 * 1.0 * math.sqrt(2.0 * math.pi))  # only the two end points sit on data
    assert trace.density == (peak,) + (0.0,) * (len(trace.grid) - 2) + (peak,)


def test_kde_silverman_iqr_fallback():
    # IQR 0 but positive sd: the rule falls back to sd instead of h=0
    sample = [1.0] * 10 + [2.0]
    h = silverman_bandwidth(sample)
    assert h > 0


def test_kde_empty_sample_error():
    with pytest.raises(InputError):
        kde([])


def _overrun_sample(n: int) -> np.ndarray:
    return resolve_dist("big-dam").quantile_array(_rng.uniforms(3, 0, 0, n))


def test_kde_golden_digest():
    # frozen from the dense 512 x n evaluation; the windowed one must match it bit for bit
    trace = kde(_overrun_sample(10_000))
    digest = hashlib.sha256(repr((trace.grid, trace.density, trace.bandwidth)).encode())
    assert digest.hexdigest() == "32144b50e27a50e3182f811f48e3f9fc6f37f13eb46211e1146bb84d4e369778"


def _dense_kde_oracle(sample, grid, h):
    """The blocked dense form the windowed kde replaced: every kernel of every grid
    row, 32 rows at a time, each row summed in sample order."""
    data = np.asarray(sample, dtype=float)
    grid = np.asarray(grid)
    dens = np.empty(len(grid))
    b = np.empty((32, len(data)))
    with np.errstate(over="ignore"):
        for i in range(0, len(grid), 32):
            np.subtract(grid[i:i + 32, None], data, out=b)
            b /= h
            np.multiply(b, b, out=b)
            b *= -0.5
            np.exp(b, out=b)
            b.sum(axis=1, out=dens[i:i + 32])
    dens /= len(data) * h * math.sqrt(2.0 * math.pi)
    return dens.tolist()


_WIDE = np.linspace(-3.0, 3.0, 300)
_NEAR_1E300 = 1e300 * (1.0 + np.linspace(-1e-15, 1e-15, 41))  # float spacing 1.5e284 > h
# two clusters 2,000 bandwidths apart, in shuffled order: the rows between them have
# empty windows, and each window's sample positions are scattered through the row. The
# grid step is 3.9 h, so a kernel that leaves a window was a normal float in the row
# before; at h = 1.0 it would be subnormal there and vanish under the normalizer
_GAP = np.random.default_rng(32).permutation(
    np.concatenate([np.linspace(0.0, 1.0, 60), 1000.0 + np.linspace(0.0, 1.0, 60)]))


@pytest.mark.parametrize("sample, bandwidth", [
    (_overrun_sample(10_000), None),  # fat-tailed: kernels reach exp's subnormal band
    (_WIDE, 100.0),  # |g - x| <= 406, so |z| <= 4.06: no kernel is 0
    ([1.27], 0.1),
    (1.0 + 1e-14 * np.arange(-20, 21) ** 3 / 400, 1e-14),
    (_NEAR_1E300, 1e282),
    (-_NEAR_1E300, 1e282),
    (_GAP, 0.5),
], ids=["golden", "all-nonzero", "n1", "h1e-14", "near+1e300", "near-1e300", "gap"])
def test_kde_windows_match_the_dense_form_bit_for_bit(sample, bandwidth):
    trace = kde(sample, bandwidth)
    dense = _dense_kde_oracle(sample, trace.grid, trace.bandwidth)
    assert [d.hex() for d in trace.density] == [d.hex() for d in dense]  # -0.0 would show
    assert any(trace.density)


def test_kde_window_edge_matches_the_dense_form_bit_for_bit():
    # a sample spanning [0, 63.75] at h = 2**-6 puts the grid on exact multiples of 8 h,
    # so each probe sits k bandwidths from its own grid row and 120 h from any other probe
    h = 2.0 ** -6
    grid = np.linspace(-4 * h, 63.75 + 4 * h, 512).tolist()
    probes = {}  # grid row: its one probe within 40 h
    for j, k in enumerate((38.6, 38.7, 39.0, 40.0)):
        probes[40 + 20 * j] = grid[40 + 20 * j] + k * h
        probes[140 + 20 * j] = grid[140 + 20 * j] - k * h
    probes[300] = grid[300] + 38.7 * h  # on the window's bound fl(g + fl(38.7 h))
    probes[320] = math.nextafter(grid[320] + 38.7 * h, math.inf)  # one float past it
    sample = np.random.default_rng(34).permutation([0.0, 63.75, *probes.values()])
    trace = kde(sample, h)
    assert list(trace.grid) == grid
    dense = _dense_kde_oracle(sample, trace.grid, h)
    assert [d.hex() for d in trace.density] == [d.hex() for d in dense]
    # a kernel 38.6 h out is exp's smallest subnormal, the row's only nonzero term;
    # from 38.7 h out every kernel is 0.0
    assert [trace.density[i] > 0.0 for i in probes] == [True, True] + [False] * 8


def test_kde_peak_memory_is_one_row():
    # a dense 512 x 10,000 distance matrix alone is 39 MiB, and one row of it 78 KiB
    sample = _overrun_sample(10_000)
    tracemalloc.start()
    try:
        kde(sample)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


# ---------------------------------------------------------------------------
# Mann-Whitney U


def test_mwu_small_example_exact():
    result = mann_whitney_u([3, 4], [1, 2])
    assert result.statistic == 4
    assert result.p_value == pytest.approx(1 / 3, rel=1e-15)
    assert result.method == "exact"
    assert (result.n, result.m) == (2, 2)


def test_mwu_identical_multisets():
    x = [1.0, 2.0, 2.0, 5.0]
    result = mann_whitney_u(x, list(x))
    assert result.statistic == len(x) * len(x) / 2


def test_mwu_u_complement_identity():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n, m = int(rng.integers(1, 10)), int(rng.integers(1, 10))
        x = list(rng.integers(0, 6, size=n).astype(float))
        y = list(rng.integers(0, 6, size=m).astype(float))
        u_xy = mann_whitney_u(x, y).statistic
        u_yx = mann_whitney_u(y, x).statistic
        assert u_xy + u_yx == n * m


def test_mwu_exact_matches_enumeration_oracle():
    # every split of every N up to 12, tied and tie-free: the counted p-value
    # equals the enumerated one bit for bit
    rng = np.random.default_rng(21)
    for total in range(2, 13):
        for n in range(1, total):
            for pooled in (rng.integers(0, 5, size=total).astype(float), rng.normal(size=total)):
                x, y = list(pooled[:n]), list(pooled[n:])
                u_oracle, p_oracle = mwu_enumeration_oracle(x, y)
                result = mann_whitney_u(x, y)
                assert result.method == "exact"
                assert result.statistic == u_oracle
                assert result.p_value == p_oracle


def test_mwu_exact_matches_scipy_without_ties():
    rng = np.random.default_rng(31)
    for total in range(2, EXACT_U_LIMIT + 1):
        for n in sorted({1, total // 3 or 1, total // 2, total - 1}):
            pooled = rng.normal(size=total)
            x, y = list(pooled[:n]), list(pooled[n:])
            result = mann_whitney_u(x, y)
            ref = sp_stats.mannwhitneyu(x, y, method="exact", alternative="two-sided")
            assert result.method == "exact"
            assert result.statistic == ref.statistic
            assert result.p_value == pytest.approx(ref.pvalue, rel=1e-12, abs=0)


def _rank_sum_enumeration_p(pooled, n):
    """Two-sided exact p from scipy's midranks and a numpy enumeration of the
    rank sum of every n-subset of the pooled sample."""
    ranks = sp_stats.rankdata(pooled)
    combos = np.array(list(itertools.combinations(range(len(pooled)), n)))
    center = n * (len(pooled) + 1) / 2.0
    sums = ranks[combos].sum(axis=1)
    dev = abs(ranks[:n].sum() - center)
    return int(np.count_nonzero(np.abs(sums - center) >= dev)) / len(combos)


def test_mwu_exact_with_ties_matches_rank_sum_enumeration_above_12():
    rng = np.random.default_rng(37)
    for total in range(13, 19):
        for n in (total // 2, 3):
            pooled = rng.integers(0, 6, size=total).astype(float)
            result = mann_whitney_u(list(pooled[:n]), list(pooled[n:]))
            assert result.method == "exact"
            assert result.p_value == _rank_sum_enumeration_p(pooled, n)


def test_mwu_seven_vs_seven_full_separation_is_exact():
    result = mann_whitney_u([8, 9, 10, 11, 12, 13, 14], [1, 2, 3, 4, 5, 6, 7])
    assert result.method == "exact"
    assert result.statistic == 49
    assert result.p_value == 2 / 3432  # the two extreme labelings of C(14, 7)


def test_mwu_normal_approx_u_matches_pairwise_oracle():
    # heavy ties (few distinct values) exercise the midrank runs
    rng = np.random.default_rng(23)
    for total in (EXACT_U_LIMIT + 1, EXACT_U_LIMIT + 2, EXACT_U_LIMIT + 8, 57, 130, 251, 400):
        for distinct in (2, 5, 40):
            n = int(rng.integers(1, total))
            x = list(rng.integers(0, distinct, size=n).astype(float) / 4.0)
            y = list(rng.integers(0, distinct, size=total - n).astype(float) / 4.0)
            result = mann_whitney_u(x, y)
            assert result.method == "normal_approx"
            assert result.statistic == u_pairwise(x, y)


def test_mwu_normal_approx_vs_permutation_mc():
    rng = np.random.default_rng(99)
    x = list(rng.normal(0.6, 1.0, size=30))
    y = list(rng.normal(0.0, 1.0, size=30))
    result = mann_whitney_u(x, y)
    assert result.method == "normal_approx"

    pooled = np.array(x + y)
    n = 30
    center = n * n / 2.0
    obs_dev = abs(result.statistic - center)
    resamples = 100_000
    perm = np.argsort(rng.random((resamples, pooled.size)), axis=1)
    shuffled = pooled[perm]
    gx, gy = shuffled[:, :n], shuffled[:, n:]
    u_vals = (gx[:, :, None] > gy[:, None, :]).sum(axis=(1, 2)).astype(float)
    p_mc = float(np.mean(np.abs(u_vals - center) >= obs_dev - 1e-12))
    assert result.p_value == pytest.approx(p_mc, abs=0.01)


def test_mwu_exact_p_monotone_under_growing_shift():
    # continuous samples keep the exact U null distribution-free, and U is
    # non-decreasing in an upward shift of x; once the shift has pushed U to
    # or past the center, doubling it can never increase the exact p-value.
    # Below the center the sampled data has not expressed the shift yet, so
    # those draws are only held to the aggregate (statistical) check.
    rng = np.random.default_rng(55)
    p_small, p_large = [], []
    expressed = 0
    for _ in range(200):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(2, min(7, 11 - n)))
        x = list(rng.normal(0.0, 1.0, size=n))
        y = list(rng.normal(0.0, 1.0, size=m))
        delta = float(rng.uniform(0.2, 1.5))
        r1 = mann_whitney_u([v + delta for v in x], y)
        r2 = mann_whitney_u([v + 2 * delta for v in x], y)
        p_small.append(r1.p_value)
        p_large.append(r2.p_value)
        assert r2.statistic >= r1.statistic  # U monotone in the shift, always
        if r1.statistic >= n * m / 2.0:
            expressed += 1
            assert r2.p_value <= r1.p_value + 1e-15
    assert expressed > 100
    assert np.mean(p_large) <= np.mean(p_small)


def test_mwu_empty_sample_error():
    with pytest.raises(InputError):
        mann_whitney_u([], [1.0])
    for x in ([1.0, math.nan], [math.nan] + [1.0] * EXACT_U_LIMIT):  # exact and normal paths
        with pytest.raises(InputError):
            mann_whitney_u(x, [2.0, 3.0])


def test_overrun_bias_samples_split():
    over, under = overrun_bias_samples([0.8, 1.0, 1.5, 2.0])
    assert over == [0.5, 1.0]
    assert under == pytest.approx([0.2])


# ---------------------------------------------------------------------------
# incomplete beta / F distribution


def test_incomplete_beta_against_scipy():
    rng = np.random.default_rng(61)
    for _ in range(300):
        a = float(rng.uniform(0.5, 60.0))
        b = float(rng.uniform(0.5, 60.0))
        x = float(rng.uniform(1e-6, 1 - 1e-6))
        mine = regularized_incomplete_beta(a, b, x)
        ref = float(sp_special.betainc(a, b, x))
        assert mine == pytest.approx(ref, rel=1e-10, abs=1e-12)


_BETA_SHAPES = (0.05, 0.5, 1.0, 1.5, 3.0, 12.5, 40.0, 250.0)
_BETA_XS = (1e-12, 1e-4, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0 - 1e-6)
_F_VALUES = (1e-3, 0.5, 1.0, 2.0, 5.0, 20.0, 1e3)
_F_DFS = (1, 2, 3, 5, 10, 30, 120, 1000)


def test_incomplete_beta_golden_digest():
    # frozen from the Lentz loop with its two half-steps written out; any
    # rewrite of _betacf must keep every bit
    values = [regularized_incomplete_beta(a, b, x)
              for a, b, x in itertools.product(_BETA_SHAPES, _BETA_SHAPES, _BETA_XS)]
    values += [f_sf(f, df1, df2)
               for f, df1, df2 in itertools.product(_F_VALUES, _F_DFS, _F_DFS)]
    assert len(values) == 1088
    digest = hashlib.sha256(",".join(map(float.hex, values)).encode())
    assert digest.hexdigest() == "33534459ff5b41815883ae3ea5e58163b568807020a1cb5dcab5fc71b591f01c"


# ---------------------------------------------------------------------------
# one-way F


def test_one_way_f_identical_groups():
    result = one_way_f([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]])
    assert result.statistic == 0.0
    assert result.p_value == pytest.approx(1.0, rel=1e-12)


def test_one_way_f_hand_anova_table():
    # groups {1,2,3},{2,3,4}: SSB = 1.5, SSW = 4, df = (1, 4), F = 1.5
    result = one_way_f([[1.0, 2.0, 3.0], [2.0, 3.0, 4.0]])
    assert result.statistic == pytest.approx(1.5, rel=1e-12)
    assert result.p_value == pytest.approx(float(sp_stats.f.sf(1.5, 1, 4)), rel=1e-10)
    assert (result.n, result.m) == (6, 2)


def test_one_way_f_detects_large_shift():
    rng = np.random.default_rng(77)
    groups = [list(rng.normal(mu, 0.3, size=25)) for mu in (1.0, 1.0, 2.5)]
    result = one_way_f(groups)
    assert result.p_value < 0.01


def test_one_way_f_degenerate_variance_error():
    with pytest.raises(DegenerateSampleError):
        one_way_f([[1.0, 1.0], [2.0, 2.0]])


def test_one_way_f_shift_invariance():
    rng = np.random.default_rng(13)
    groups = [list(rng.normal(0, 1, size=12)) for _ in range(3)]
    base = one_way_f(groups)
    shifted = one_way_f([[v + 7.5 for v in g] for g in groups])
    assert shifted.statistic == pytest.approx(base.statistic, rel=1e-9, abs=1e-9)
    assert shifted.p_value == pytest.approx(base.p_value, rel=1e-9, abs=1e-12)


def test_one_way_f_matches_scipy_f_oneway():
    rng = np.random.default_rng(101)
    groups = [list(rng.normal(mu, 1.0, size=int(rng.integers(5, 20)))) for mu in (0.0, 0.3, 0.1)]
    mine = one_way_f(groups)
    ref = sp_stats.f_oneway(*groups)
    assert mine.statistic == pytest.approx(float(ref.statistic), rel=1e-12)
    assert mine.p_value == pytest.approx(float(ref.pvalue), rel=1e-9)


def test_one_way_f_validation():
    with pytest.raises(InputError):
        one_way_f([[1.0, 2.0]])
    with pytest.raises(InputError):
        one_way_f([[1.0], []])
    with pytest.raises(InputError):
        one_way_f([[1.0], [2.0]])  # total n == k
    for bad in (math.nan, math.inf):
        with pytest.raises(InputError, match="non-finite"):
            one_way_f([[1.0, 2.0], [3.0, bad]])


@pytest.mark.parametrize("groups", [
    [[1e300, -1e300], [1e300, 0.0]],  # a squared deviation overflows
    [[1.7e308, 1.7e308], [0.0, 1.0]],  # a group sum overflows
])
def test_one_way_f_overflow_is_compute_error(groups):
    with pytest.raises(ComputeError, match="overflows the float range"):
        one_way_f(groups)


# ---------------------------------------------------------------------------
# trend F


def test_trend_perfect_line():
    x = [1.0, 2.0, 3.0, 4.0]
    y = [2.0 + 0.5 * xi for xi in x]
    result = trend_f(x, y)
    assert result.slope == pytest.approx(0.5, rel=1e-12)
    assert result.r_squared == 1.0
    assert result.p_value == 0.0
    assert math.isinf(result.statistic)


def test_trend_constant_response():
    result = trend_f([1.0, 2.0, 3.0], [4.0, 4.0, 4.0])
    assert result.slope == 0.0
    assert result.statistic == 0.0
    assert result.p_value == 1.0


def test_trend_matches_normal_equations_oracle():
    rng = np.random.default_rng(19)
    x = list(rng.uniform(1930.0, 2010.0, size=10))
    y = list(1.3 + 0.002 * (np.asarray(x) - 1970) + rng.normal(0, 0.2, size=10))
    result = trend_f(x, y)
    n = len(x)
    xbar, ybar = math.fsum(x) / n, math.fsum(y) / n
    sxx = math.fsum((xi - xbar) ** 2 for xi in x)
    sxy = math.fsum((xi - xbar) * (yi - ybar) for xi, yi in zip(x, y))
    slope = sxy / sxx
    intercept = ybar - slope * xbar
    rss = math.fsum((yi - intercept - slope * xi) ** 2 for xi, yi in zip(x, y))
    f_expected = slope * slope * sxx / (rss / (n - 2))
    assert result.slope == pytest.approx(slope, rel=1e-9)
    assert result.statistic == pytest.approx(f_expected, rel=1e-9)
    # cross-check against scipy's linregress t-test of the slope
    ref = sp_stats.linregress(x, y)
    assert result.slope == pytest.approx(float(ref.slope), rel=1e-12)
    assert result.p_value == pytest.approx(float(ref.pvalue), rel=1e-9)


def test_trend_shift_invariance():
    rng = np.random.default_rng(29)
    x = list(rng.uniform(0, 50, size=12))
    y = list(rng.uniform(1, 2, size=12))
    base = trend_f(x, y)
    shifted = trend_f(x, [v + 3.0 for v in y])
    assert shifted.statistic == pytest.approx(base.statistic, rel=1e-9)
    assert shifted.slope == pytest.approx(base.slope, rel=1e-9, abs=1e-12)


def test_trend_validation():
    with pytest.raises(InputError):
        trend_f([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(InputError):
        trend_f([1.0, 2.0], [1.0, 2.0])
    for bad in (math.nan, -math.inf):
        with pytest.raises(InputError, match="non-finite"):
            trend_f([1.0, 2.0, 3.0], [1.0, bad, 3.0])
        with pytest.raises(InputError, match="non-finite"):
            trend_f([1.0, bad, 3.0], [1.0, 2.0, 3.0])


@pytest.mark.parametrize("x, y", [
    ([1.0, 2.0, 3.0], [1e300, -1e300, 1e300]),  # a squared deviation overflows
    ([1.0, 2.0, 3.0], [1.7e308, 1.7e308, 0.0]),  # the sum of y overflows
    ([0.0, 1e-160, 2e-160], [0.0, 1e150, 2e150]),  # the slope overflows into the residuals
])
def test_trend_overflow_is_compute_error(x, y):
    with pytest.raises(ComputeError, match="overflows the float range"):
        trend_f(x, y)
