import random
import statistics

import pytest
from hypothesis import example, given, settings, strategies as st

from xplan.scott_knott import (
    MethodSamples,
    RankedReport,
    a12,
    bootstrap_test,
    fmean,
    median,
    quartiles,
    render_report,
    scott_knott_rank,
)


def a12_oracle(m, n):
    """Direct probability estimate by enumerating all pairs."""
    wins = 0.0
    for x in m:
        for y in n:
            if x > y:
                wins += 1
            elif x == y:
                wins += 0.5
    return wins / (len(m) * len(n))


class TestA12:
    def test_matches_enumeration_oracle(self):
        rng = random.Random(0)
        for _ in range(20):
            m = [rng.gauss(0, 1) for _ in range(7)]
            n = [rng.gauss(0.5, 1) for _ in range(9)]
            assert a12(m, n) == pytest.approx(a12_oracle(m, n))

    def test_identical_samples_half(self):
        assert a12([1, 2, 3], [1, 2, 3]) == pytest.approx(0.5)

    def test_total_dominance_is_one(self):
        assert a12([10, 11], [1, 2]) == 1.0

    def test_partial_overlap(self):
        # pairs: (1,2)<, (1,3)<, (2,2)=, (2,3)< -> 0.5/4
        assert a12([1, 2], [2, 3]) == pytest.approx(0.125)

    def test_complement_property(self):
        rng = random.Random(1)
        m = [rng.random() for _ in range(8)]
        n = [rng.random() for _ in range(5)]
        assert a12(m, n) + a12(n, m) == pytest.approx(1.0)


class TestBootstrap:
    def test_identical_means_not_different(self):
        assert not bootstrap_test([1.0, 2.0, 3.0], [3.0, 2.0, 1.0])

    def test_well_separated_samples_different(self):
        rng = random.Random(2)
        m = [rng.gauss(0, 0.1) for _ in range(30)]
        n = [rng.gauss(5, 0.1) for _ in range(30)]
        assert bootstrap_test(m, n, rng=random.Random(0))

    def test_same_distribution_usually_same(self):
        rng = random.Random(3)
        hits = 0
        for trial in range(20):
            m = [rng.gauss(0, 1) for _ in range(20)]
            n = [rng.gauss(0, 1) for _ in range(20)]
            if bootstrap_test(m, n, rng=random.Random(trial)):
                hits += 1
        # at 99% confidence false positives should be rare
        assert hits <= 3

    def test_more_bootstraps_agree_on_clear_cases(self):
        m = [0.0] * 10 + [0.1]
        n = [9.0] * 10 + [9.1]
        assert bootstrap_test(m, n, b=128, rng=random.Random(0))
        assert bootstrap_test(m, n, b=2048, rng=random.Random(0))


class TestRanking:
    def constant_samples(self):
        return [
            MethodSamples("high", [0.9] * 20),
            MethodSamples("low", [0.1] * 20),
            MethodSamples("mid", [0.5] * 20),
        ]

    def test_three_separated_methods_get_three_ranks(self):
        report = scott_knott_rank(self.constant_samples(), rng=random.Random(0))
        by_method = {e.method: e.rank for e in report.entries}
        assert by_method == {"low": 1, "mid": 2, "high": 3}

    def test_entries_sorted_by_median(self):
        report = scott_knott_rank(self.constant_samples(), rng=random.Random(0))
        medians = [e.median for e in report.entries]
        assert medians == sorted(medians)

    def test_same_distribution_shares_a_rank(self):
        rng = random.Random(4)
        base = [rng.gauss(1, 0.3) for _ in range(40)]
        samples = [
            MethodSamples("a", list(base)),
            MethodSamples("b", [v + 1e-6 for v in base]),
        ]
        report = scott_knott_rank(samples, rng=random.Random(0))
        assert {e.rank for e in report.entries} == {1}

    def test_single_method_rank_one(self):
        report = scott_knott_rank([MethodSamples("only", [1.0, 2.0])])
        assert len(report.entries) == 1
        assert report.entries[0].rank == 1

    def test_translation_preserves_rank_order(self):
        samples = self.constant_samples()
        shifted = [MethodSamples(s.method, [v + 100 for v in s.values]) for s in samples]
        r1 = scott_knott_rank(samples, rng=random.Random(0))
        r2 = scott_knott_rank(shifted, rng=random.Random(0))
        assert [(e.rank, e.method) for e in r1.entries] == [
            (e.rank, e.method) for e in r2.entries
        ]

    def test_small_effect_not_split(self):
        # clearly overlapping distributions: A12 well under 0.6
        rng = random.Random(5)
        samples = [
            MethodSamples("a", [rng.gauss(0, 1) for _ in range(40)]),
            MethodSamples("b", [rng.gauss(0.05, 1) for _ in range(40)]),
        ]
        report = scott_knott_rank(samples, rng=random.Random(0))
        assert {e.rank for e in report.entries} == {1}

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            scott_knott_rank([])

    def test_json_round_trip_fields(self):
        report = scott_knott_rank(self.constant_samples(), rng=random.Random(0))
        blob = report.to_json()
        assert [d["method"] for d in blob] == [e.method for e in report.entries]
        assert all(set(d) == {"rank", "method", "median", "iqr", "q1", "q3"} for d in blob)


# Ratios as the planners give them: many exactly 1.0, as all of identity's
# are, and the rest anywhere in [0, 2].
SAMPLE = st.builds(lambda ones, rest: [1.0] * ones + rest, st.integers(0, 25),
                   st.lists(st.floats(0, 2).map(lambda x: round(x, 1)), max_size=15)).filter(bool)
METHOD_SAMPLES = st.lists(SAMPLE, min_size=2, max_size=4).map(
    lambda values: [MethodSamples(f"m{k}", v) for k, v in enumerate(values)])


class TestRankProperties:
    """The rank order follows (median, mean): no method ranks below one
    whose median is higher, or equal with a higher mean."""

    @settings(max_examples=60, deadline=None)
    @given(METHOD_SAMPLES, st.integers(0, 3))
    # identity given first: a median-only sort kept it ahead of cdfs, which
    # ties its median of 1.0 with a lower mean, and the split between them
    # is significant
    @example([MethodSamples("identity", [1.0] * 40),
              MethodSamples("cdfs", [1.0] * 32 + [0.3] * 8)], 1)
    def test_a_better_rank_has_no_worse_median_nor_tied_mean(self, samples, seed):
        report = scott_knott_rank(samples, rng=random.Random(seed))
        rank = {e.method: e.rank for e in report.entries}
        for a in samples:
            for b in samples:
                if rank[a.method] < rank[b.method]:
                    assert a.median <= b.median
                    if a.median == b.median:
                        assert fmean(a.values) <= fmean(b.values)

    @settings(max_examples=60, deadline=None)
    @given(METHOD_SAMPLES, st.randoms(use_true_random=False), st.integers(0, 3))
    def test_input_order_changes_no_rank(self, samples, shuffler, seed):
        permuted = list(samples)
        shuffler.shuffle(permuted)
        first = scott_knott_rank(samples, rng=random.Random(seed))
        second = scott_knott_rank(permuted, rng=random.Random(seed))
        assert first.entries == second.entries

    def test_tied_medians_rank_by_mean_then_name(self):
        # identity's ratios are all 1.0; "bic" and "cdfs" share its median
        # but not its mean, and "b" and "a" tie it on both
        samples = [MethodSamples("identity", [1.0] * 10),
                   MethodSamples("bic", [0.2, 0.4, 1.0, 1.0, 1.0, 1.0, 1.0]),
                   MethodSamples("cdfs", [0.8, 1.0, 1.0, 1.0, 1.0]),
                   MethodSamples("b", [1.0]), MethodSamples("a", [1.0, 1.0])]
        report = scott_knott_rank(samples)
        assert [e.method for e in report.entries] == ["bic", "cdfs", "a", "b", "identity"]


class TestQuartiles:
    def test_known_values(self):
        q1, q3 = quartiles([1, 2, 3, 4, 5])
        assert q1 == 2 and q3 == 4

    def test_single_value(self):
        assert quartiles([7.0]) == (7.0, 7.0)


class TestRender:
    def test_strip_width_and_marker(self):
        report = scott_knott_rank(
            [
                MethodSamples("alpha", [0.1, 0.2, 0.3, 0.4]),
                MethodSamples("beta", [0.7, 0.8, 0.9, 1.0]),
            ],
            rng=random.Random(0),
        )
        text = render_report(report)
        lines = text.splitlines()
        assert len(lines) == 3
        for line in lines[1:]:
            assert line.count("*") == 1

    def test_identical_methods_render_without_error(self):
        report = scott_knott_rank([MethodSamples("only", [2.0] * 10)])
        text = render_report(report)
        assert "only" in text and "*" in text

    def test_empty_report_rejected(self):
        with pytest.raises(ValueError):
            render_report(RankedReport([]))


class TestStatisticsReplacements:
    """fmean, median and quartiles equal the ``statistics`` functions they
    stand for with ``==``, on ties, mixed magnitudes, ints and every length
    up to 60."""

    @given(st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False, width=64,
                                        min_value=-1e300, max_value=1e300),
                              st.floats(0, 2).map(lambda x: round(x, 1)),
                              st.integers(-5, 5)),
                    min_size=1, max_size=60))
    def test_equal_to_statistics(self, xs):
        assert fmean(xs) == statistics.fmean(xs)
        assert median(xs) == statistics.median(xs)
        if len(xs) > 1:
            q = statistics.quantiles(xs, n=4, method="inclusive")
            assert quartiles(xs) == (q[0], q[2])
        else:
            assert quartiles(xs) == (xs[0], xs[0])
