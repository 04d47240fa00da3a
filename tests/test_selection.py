
import tracemalloc

import numpy as np
import pytest

import schaudermat.selection

from schaudermat import (
    InsufficientCardinalityError,
    SpectrumSequence,
    cardinality_profile,
    geometric_spectrum,
    harmonic_demo,
    harmonic_spectrum,
    parse_spectrum,
    ratio_limit_check,
    segment_cut,
    select_subsets,
    validate_plan,
)


def random_spectrum(rng):
    """A strictly decreasing sample: uniform, exponentially spread or harmonic-like."""
    n = int(rng.integers(2, 400))
    x = [rng.uniform(0.0, 1.0, n), np.exp(-rng.exponential(3.0, n)),
         1.0 / rng.integers(1, 4 * n, n)][int(rng.integers(3))]
    return SpectrumSequence(np.unique(x[x > 0])[::-1])


def oracle_select(spectrum, alpha, delta, levels):
    """select_subsets from its definition, with a boolean mask per window.

    Returns (subsets, t0s, cardinalities) of the plan, or the fields
    (level, exponent, window, needed, available) of the failure.
    """
    v = spectrum.values
    used = np.zeros(v.size, dtype=bool)
    subsets, t0s, cards = [], [], []
    for k in range(1, levels + 1):
        need = 2 ** k

        def window(j):
            lo, hi = t0 * alpha ** j / delta, t0 * alpha ** j
            return (lo, hi), np.flatnonzero((v >= lo) & (v <= hi) & ~used)

        failure = None
        floor = v[used].min() if used.any() else np.inf
        for t0 in v[v < floor]:
            counts = []
            for j in range(1, k + 1):
                bounds, avail = window(j)
                counts.append(avail.size)
                if avail.size < need:
                    failure = failure or (k, j, bounds, need, avail.size)
                    break
            else:
                break
        else:
            return failure or (k, 1, (0.0, 0.0), need, 0)
        subset = []
        # Exponent k twice, then 2^(k-j) values of exponent j = k-1..1,
        # each time the largest unused values of the window.
        for j, count in [(k, 2)] + [(j, 2 ** (k - j)) for j in range(k - 1, 0, -1)]:
            picks = window(j)[1][:count]
            used[picks] = True
            subset.extend(int(i) + 1 for i in picks)
        subsets.append(tuple(subset))
        t0s.append(float(t0))
        cards.append(tuple(counts))
    return tuple(subsets), tuple(t0s), tuple(cards)


class TestSpectrumSequence:
    def test_rejects_increase(self):
        with pytest.raises(ValueError):
            SpectrumSequence(np.array([1.0, 1.5, 0.5]))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            SpectrumSequence(np.array([1.0, 0.0]))

    def test_rejects_nan(self):
        # Windows are found by binary search, which needs a sorted sample.
        with pytest.raises(ValueError):
            SpectrumSequence(np.array([1.0, np.nan, 0.5]))

    def test_parse_generators(self):
        h = parse_spectrum("harmonic:100")
        assert len(h) == 100 and h.values[9] == pytest.approx(0.1)
        g = parse_spectrum("geometric:0.5:10")
        assert g.values[2] == pytest.approx(0.125)

    @pytest.mark.parametrize("r", [0.5, 0.9, 0.99])
    def test_geometric_values_are_python_float_powers(self, r):
        # numpy's vectorised power rounds some of these differently, at r = 0.9
        # for exponents 12, 23, 40, 51, 86, 100, 117 and 124 with numpy 2.4
        values = geometric_spectrum(r, 200).values.tolist()
        assert values == [r ** j for j in range(1, 201)]

    @pytest.mark.parametrize("text", ["harmonic:10:20", "geometric:0.5", "geometric:0.5:10:3"])
    def test_parse_refuses_wrong_field_count(self, text):
        with pytest.raises(ValueError, match="must read harmonic:N or geometric:r:N"):
            parse_spectrum(text)

    def test_generated_length_is_bounded(self):
        # Refused before the 10^7 + 1 values are allocated.
        message = "spectrum length must be at most 10000000, got 10000001"
        with pytest.raises(ValueError, match=message):
            harmonic_spectrum(10 ** 7 + 1)
        with pytest.raises(ValueError, match=message):
            geometric_spectrum(0.5, 10 ** 7 + 1)
        with pytest.raises(ValueError, match=message):
            harmonic_demo(1, 0.8, 2.0, spectrum_length=10 ** 7 + 1)

    def test_parse_file(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("# sample\n1.0\n0.5\n0.25\n")
        s = parse_spectrum(str(path))
        np.testing.assert_allclose(s.values, [1.0, 0.5, 0.25])

    def test_parse_file_skips_indented_comments(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("# sample\n  # note\n 1.0\n\t#tab\n\n0.5 \r\n   \n0.25\n  #")
        assert parse_spectrum(str(path)).values.tolist() == [1.0, 0.5, 0.25]

    def test_file_length_is_bounded(self, tmp_path, monkeypatch):
        monkeypatch.setattr(schaudermat.selection, "MAX_SPECTRUM_LENGTH", 3)
        path = tmp_path / "s.txt"
        path.write_text("1\n# note\n0.5\n0.25\n")
        assert len(parse_spectrum(str(path))) == 3
        # Reading stops at the fourth value: the bad line after it is never parsed.
        path.write_text("1\n0.5\n0.25\n0.125\nnot a number\n")
        with pytest.raises(ValueError, match="spectrum file values read must be at most 3, got 4"):
            parse_spectrum(str(path))

    def test_file_is_read_in_chunks(self, tmp_path, monkeypatch):
        monkeypatch.setattr(schaudermat.selection, "_CHUNK", 2)
        path = tmp_path / "s.txt"
        path.write_text("1\n# note\n0.5\n0.25\n\n0.125\n0.0625\n")
        assert parse_spectrum(str(path)).values.tolist() == [1, 0.5, 0.25, 0.125, 0.0625]
        path.write_text("1\n0.5\n0.25\n0.125\n1e-1_0\n")
        with pytest.raises(IOError, match="s.txt: line 5: unparsable value"):
            parse_spectrum(str(path))


class TestCardinalityProfile:
    def test_harmonic_counts(self):
        spectrum = harmonic_spectrum(1000)
        for m in (3, 10, 100, 500):
            (count,) = cardinality_profile(spectrum, 2.0, [1.0 / m])
            assert count == m + 1  # indices m..2m land in [1/(2m), 1/m]

    def test_geometric_delta_two(self):
        spectrum = geometric_spectrum(0.5, 60)
        counts = cardinality_profile(spectrum, 2.0, [2.0 ** -j for j in range(2, 30)])
        assert all(c == 2 for c in counts)

    def test_geometric_tight_delta(self):
        spectrum = geometric_spectrum(0.5, 60)
        counts = cardinality_profile(spectrum, 1.5, [2.0 ** -j for j in range(2, 30)])
        assert all(c == 1 for c in counts)

    def test_monotone_in_delta(self):
        spectrum = harmonic_spectrum(2000)
        ts = [0.3, 0.1, 0.03, 0.01]
        small = cardinality_profile(spectrum, 1.5, ts)
        large = cardinality_profile(spectrum, 3.0, ts)
        assert all(b >= a for a, b in zip(small, large))

    def test_rejects_delta(self):
        with pytest.raises(ValueError):
            cardinality_profile(harmonic_spectrum(10), 1.0, [0.5])

    def test_matches_boolean_counts(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            v = random_spectrum(rng).values
            delta = float(rng.uniform(1.05, 4.0))
            # Tops above, inside and below the spectrum, and windows that
            # straddle either end.
            ts = [*v[:: max(1, v.size // 9)], 2 * v[0], v[0] * (1 + delta) / 2,
                  v[-1] * (1 + delta) / 2, v[-1], v[-1] / 2]
            expected = [int(np.count_nonzero((v >= t / delta) & (v <= t))) for t in ts]
            assert cardinality_profile(SpectrumSequence(v), delta, ts) == expected


class TestSelectSubsets:
    @pytest.mark.parametrize("levels", [1, 2, 3, 4])
    def test_harmonic_succeeds(self, levels):
        spectrum = harmonic_spectrum(10000)
        result = select_subsets(spectrum, 0.8, 2.0, levels)
        report = validate_plan(spectrum, result.plan)
        assert report.ok, report.violations
        for k, subset in enumerate(result.plan.subsets, start=1):
            assert len(subset) == 2 ** k

    def test_geometric_fails_at_three_levels(self):
        # A window [0.8 t / 2, 0.8 t] holds two geometric(1/2) values only if
        # 0.8 t is a power of two, which it never is here: each holds at most
        # one, so already the two-element level 1 cannot be filled
        spectrum = geometric_spectrum(0.5, 200)
        with pytest.raises(InsufficientCardinalityError) as err:
            select_subsets(spectrum, 0.8, 2.0, 3)
        assert err.value.level == 1
        assert err.value.available < err.value.needed
        assert err.value.window[0] < err.value.window[1]

    def test_minimal_single_level(self):
        spectrum = SpectrumSequence(np.array([1.0, 0.42, 0.41, 0.4, 0.1]))
        result = select_subsets(spectrum, 0.8, 2.0, 1)
        # window [0.4 t0, 0.8 t0] below t0=1: picks the two largest fits
        assert result.plan.subsets[0] == (2, 3)

    def test_levels_are_ordered(self):
        spectrum = harmonic_spectrum(10000)
        plan = select_subsets(spectrum, 0.8, 2.0, 4).plan
        prev_max = 0
        for subset in plan.subsets:
            assert min(subset) > prev_max
            prev_max = max(subset)

    def test_rejects_alpha_and_delta(self):
        spectrum = harmonic_spectrum(100)
        for alpha, delta in [(0.5, 2.0), (1.0, 2.0), (0.8, 1.0), (0.8, float("nan"))]:
            with pytest.raises(ValueError):
                select_subsets(spectrum, alpha, delta, 1)

    def test_matches_mask_oracle_on_random_spectra(self):
        rng = np.random.default_rng(2026)
        outcomes = []
        for _ in range(200):
            spectrum = random_spectrum(rng)
            alpha, delta = float(rng.uniform(0.71, 0.99)), float(rng.uniform(1.05, 4.0))
            levels = int(rng.integers(1, 7))
            expected = oracle_select(spectrum, alpha, delta, levels)
            try:
                result = select_subsets(spectrum, alpha, delta, levels)
            except InsufficientCardinalityError as err:
                got = (err.level, err.exponent, err.window, err.needed, err.available)
            else:
                t0s = result.t0_per_level
                assert result.plan.c_bounds == tuple((1 / t, delta / t) for t in t0s)
                got = (result.plan.subsets, result.t0_per_level, result.cardinality_per_level)
            assert got == expected
            outcomes.append(len(expected))
        assert 20 <= outcomes.count(3) <= 180  # both plans and failures were compared

    def test_harmonic_fails_at_level_eight(self):
        with pytest.raises(InsufficientCardinalityError) as err:
            select_subsets(harmonic_spectrum(20000), 0.8, 2.0, 10)
        e = err.value
        assert (e.level, e.exponent, e.needed, e.available) == (8, 8, 256, 0)

    def test_failing_scan_skips_candidates_that_must_fail(self, monkeypatch):
        # Levels 1-8 take 37 window searches and the failing level 9 takes 8;
        # scanning every level-9 candidate took about 250 000.
        calls = []
        window = schaudermat.selection._window
        monkeypatch.setattr(schaudermat.selection, "_window",
                            lambda *args: calls.append(args) or window(*args))
        with pytest.raises(InsufficientCardinalityError) as err:
            select_subsets(harmonic_spectrum(10 ** 5), 0.8, 2.0, 9)
        assert err.value.level == 9
        assert len(calls) <= 64

    def test_bounds_come_from_t0(self):
        spectrum = harmonic_spectrum(10000)
        result = select_subsets(spectrum, 0.8, 2.0, 2)
        for (c, d), t0 in zip(result.plan.c_bounds, result.t0_per_level):
            assert c == pytest.approx(1.0 / t0)
            assert d == pytest.approx(2.0 / t0)


class TestSegmentCut:
    def test_ratio_exactly_met(self):
        assert segment_cut([1.0, 0.5], 2.0) == [1.0, 0.5]

    def test_geometric_refinement(self):
        grid = segment_cut([1.0, 0.1], 2.0)
        assert len(grid) == 5
        expected = [10.0 ** (-i / 4.0) for i in range(5)]
        np.testing.assert_allclose(grid, expected, rtol=1e-12)
        ratios = [a / b for a, b in zip(grid, grid[1:])]
        assert all(r <= 2.0 + 1e-12 for r in ratios)

    def test_loose_bound_unchanged(self):
        assert segment_cut([1.0, 0.9, 0.8], 10.0) == [1.0, 0.9, 0.8]

    def test_endpoints_preserved(self):
        mu = [3.0, 1.0, 0.2, 0.01]
        grid = segment_cut(mu, 1.7)
        for x in mu:
            assert any(abs(x - g) < 1e-15 for g in grid)
        ratios = [a / b for a, b in zip(grid, grid[1:])]
        assert all(r <= 1.7 + 1e-12 for r in ratios)

    def test_rejects_bad_ratio(self):
        with pytest.raises(ValueError):
            segment_cut([1.0, 0.5], 1.0)

    @pytest.mark.parametrize("ratio", [float("inf"), float("nan")])
    def test_rejects_non_finite_ratio(self, ratio):
        with pytest.raises(ValueError, match="ratio bound must be finite and exceed 1"):
            segment_cut([1.0, 0.5], ratio)

    @pytest.mark.parametrize("mu", [[float("inf"), 1.0], [1.0, float("nan")],
                                    [float("nan"), 1.0], [1.0, 0.5, 0.5], [1e300, 1e-300]])
    def test_rejects_non_finite_grid_or_ratio(self, mu):
        with pytest.raises(ValueError, match="grid must be strictly decreasing"):
            segment_cut(mu, 2.0)

    @pytest.mark.parametrize("mu, ratio, total", [([1.0, 0.1], 1.0000001, 23025854),
                                                  ([1.0, 1e-300], 1.0000000001, 6907754707779)])
    def test_refuses_a_long_grid_before_building_it(self, mu, ratio, total):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"grid length must be at most 10000000, got {total}"):
                segment_cut(mu, ratio)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 16

    def test_length_limit_counts_every_point(self, monkeypatch):
        monkeypatch.setattr(schaudermat.selection, "MAX_SPECTRUM_LENGTH", 5)
        assert len(segment_cut([1.0, 0.1], 2.0)) == 5
        monkeypatch.setattr(schaudermat.selection, "MAX_SPECTRUM_LENGTH", 4)
        with pytest.raises(ValueError, match="grid length must be at most 4, got 5"):
            segment_cut([1.0, 0.1], 2.0)


class TestRatioLimitCheck:
    def test_harmonic_passes(self):
        report = ratio_limit_check(harmonic_spectrum(1000), 100)
        assert report.passes
        assert report.max_ratio <= 1.05

    def test_geometric_fails(self):
        report = ratio_limit_check(geometric_spectrum(0.5, 200), 50)
        assert not report.passes
        assert report.max_ratio == pytest.approx(2.0)

    def test_log_spectrum_passes(self):
        values = 1.0 / np.log(np.arange(2, 5002))
        report = ratio_limit_check(SpectrumSequence(values), 1000)
        assert report.passes

    @pytest.mark.parametrize("tail", [100, 101, 0, -5, 1], ids=lambda t: f"tail{t}")
    def test_tail_too_long(self, tail):
        # A tail needs 2..99 of the 100 values: 0 and -5 would slice the whole
        # spectrum or a wrong part of it, and 1 would leave no ratio.
        with pytest.raises(ValueError, match=r"tail length must lie in 2\.\.99"):
            ratio_limit_check(harmonic_spectrum(100), tail)

    def test_shortest_and_longest_tail(self):
        assert ratio_limit_check(harmonic_spectrum(100), 2).tail_ratios == (100 / 99,)
        assert len(ratio_limit_check(harmonic_spectrum(100), 99).tail_ratios) == 98


class TestHarmonicDemo:
    def test_two_levels_increase(self):
        report = harmonic_demo(2, 0.8, 2.0)
        values = [c.value for c in report.unconditional_by_level]
        assert values[1] > values[0] + 1e-6

    def test_three_levels_strictly_increasing(self):
        report = harmonic_demo(3, 0.8, 2.0)
        values = [c.value for c in report.unconditional_by_level]
        assert values[0] + 1e-6 < values[1] < values[2] - 1e-6
        assert all(c.mode == "Exact" for c in report.unconditional_by_level)

    def test_single_level(self):
        report = harmonic_demo(1, 0.8, 2.0)
        assert report.unconditional_by_level[0].value >= 1.0 - 1e-10
        assert report.unitary_defect < 1e-9

    def test_quasinormality_recorded(self):
        report = harmonic_demo(2, 0.8, 2.0)
        assert 0.0 < report.quasinorm_min <= report.quasinorm_max
