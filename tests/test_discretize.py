import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from xplan.data_model import MINIMIZE_RATE, Dataset, FeatureSpec
from xplan import discretize
from xplan.discretize import mdl_discretize, rank_features
from xplan.num_core import entropy
from tests import oracle
from tests.conftest import encoded
from tests.test_decision_tree import tree_cases


def mdl_oracle_one_cut(values, labels):
    """Exhaustive best-cut search plus the MDL acceptance formula, written
    independently of the recursive implementation."""
    pairs = sorted(zip(values, labels))
    n = len(pairs)
    ent = lambda labs: entropy(Counter(labs).values())
    labs = [l for _, l in pairs]
    best = None
    for i in range(1, n):
        if pairs[i][0] == pairs[i - 1][0]:
            continue
        e = i / n * ent(labs[:i]) + (n - i) / n * ent(labs[i:])
        if best is None or e < best[0]:
            best = (e, i)
    if best is None:
        return None
    e, i = best
    gain = ent(labs) - e
    k, k1, k2 = len(set(labs)), len(set(labs[:i])), len(set(labs[i:]))
    delta = math.log2(3 ** k - 2) - (k * ent(labs) - k1 * ent(labs[:i]) - k2 * ent(labs[i:]))
    if gain <= (math.log2(n - 1) + delta) / n:
        return None
    return (pairs[i - 1][0] + pairs[i][0]) / 2


class TestMdlDiscretize:
    def test_clean_gap_yields_exactly_one_cut(self):
        values = [1, 2, 3, 101, 102, 103]
        labels = ["a", "a", "a", "b", "b", "b"]
        bins = mdl_discretize(values, labels, "v")
        assert len(bins) == 2
        cut = bins[0].hi
        assert 3 < cut <= 101
        assert cut == mdl_oracle_one_cut(values, labels)

    def test_uniform_labels_single_bin(self):
        bins = mdl_discretize([1, 2, 3, 4], ["a"] * 4, "v")
        assert len(bins) == 1
        assert bins[0].lo == -math.inf and bins[0].hi == math.inf

    def test_random_labels_rarely_cut(self):
        rng = random.Random(42)
        cut_count = 0
        for _ in range(100):
            values = [rng.random() for _ in range(20)]
            labels = [rng.choice("ab") for _ in range(20)]
            if len(mdl_discretize(values, labels, "v")) > 1:
                cut_count += 1
        assert cut_count <= 10

    def test_bins_tile_the_real_line(self):
        rng = random.Random(1)
        values = [rng.gauss(0, 5) for _ in range(60)]
        labels = ["a" if v < -1 else "b" for v in values]
        bins = mdl_discretize(values, labels, "v")
        probes = [rng.uniform(-30, 30) for _ in range(200)] + values
        for p in probes:
            assert sum(1 for b in bins if b.contains(p)) == 1

    def test_row_order_invariant(self):
        rng = random.Random(2)
        values = [rng.random() * 10 for _ in range(40)]
        labels = ["a" if v < 4 else "b" for v in values]
        bins1 = mdl_discretize(values, labels, "v")
        order = list(range(40))
        rng.shuffle(order)
        bins2 = mdl_discretize([values[i] for i in order], [labels[i] for i in order], "v")
        assert [(b.lo, b.hi) for b in bins1] == [(b.lo, b.hi) for b in bins2]

    def test_label_relabeling_invariant(self):
        values = [1, 2, 3, 101, 102, 103]
        labels = ["a", "a", "a", "b", "b", "b"]
        swapped = ["x" if l == "a" else "q" for l in labels]
        cuts1 = [b.hi for b in mdl_discretize(values, labels, "v")[:-1]]
        cuts2 = [b.hi for b in mdl_discretize(values, swapped, "v")[:-1]]
        assert cuts1 == cuts2

    def test_bin_counts_and_entropy(self):
        values = [1, 2, 3, 101, 102, 103]
        labels = ["a", "a", "b", "b", "b", "b"]
        bins = mdl_discretize(values, labels, "v")
        assert sum(b.count for b in bins) == 6
        for b in bins:
            inside = [l for v, l in zip(values, labels) if b.contains(v)]
            assert b.entropy == pytest.approx(entropy(Counter(inside).values()))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            mdl_discretize([1, 2], ["a"], "v")


def cuts_of(pairs):
    """``mdl_discretize``'s cut points on (value, label) pairs."""
    return [b.hi for b in mdl_discretize([v for v, _ in pairs], [lab for _, lab in pairs])[:-1]]


@st.composite
def sorted_pairs(draw, max_labels, max_n=150, max_top=15):
    """(value, label) pairs sorted by value, over a few distinct values (so
    many ties) and 2..max_labels labels that follow value bands with some
    noise, so that cuts are found and accepted at several levels."""
    n = draw(st.integers(0, max_n))
    k = draw(st.integers(2, max_labels))
    top = draw(st.integers(0, max_top))
    bands = draw(st.integers(k, 3 * k))
    noise = draw(st.sampled_from([0.0, 0.1, 0.3, 1.0]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    pairs = []
    for _ in range(n):
        v = rng.randint(0, top)
        label = rng.randrange(k) if rng.random() < noise else v * bands // (top + 1) % k
        pairs.append((v / 2, f"c{label}"))
    return sorted(pairs, key=lambda p: p[0])


SLICE_ORDER_CASES = [
    [(0.0, "c0"), (0.0, "c0"), (0.0, "c0"), (0.5, "c0"), (1.0, "c1"), (1.0, "c1"),
     (1.5, "c1"), (1.5, "c1"), (1.5, "c1"), (2.0, "c2"), (2.5, "c1"), (3.0, "c3"),
     (3.0, "c3"), (3.0, "c3"), (3.5, "c0")],
    [(0.5, "c1"), (0.5, "c1"), (0.5, "c1"), (1.0, "c2"), (1.0, "c2"), (1.5, "c4"),
     (2.0, "c5"), (2.0, "c5"), (2.5, "c7"), (3.0, "c8"), (3.5, "c10"), (3.5, "c10"),
     (4.0, "c0"), (4.0, "c0"), (4.0, "c0"), (4.5, "c2"), (4.5, "c2")],
]


class TestCutScanMatchesQuadraticSearch:
    @settings(max_examples=300, deadline=None)
    @given(sorted_pairs(max_labels=2))
    def test_two_labels(self, pairs):
        assert cuts_of(pairs) == oracle.find_cuts(pairs)

    @settings(max_examples=300, deadline=None)
    @given(sorted_pairs(max_labels=40))
    def test_up_to_forty_labels(self, pairs):
        assert cuts_of(pairs) == oracle.find_cuts(pairs)

    @settings(max_examples=40, deadline=None)
    @given(sorted_pairs(max_labels=64, max_n=3000, max_top=300))
    def test_levels_over_many_scan_blocks(self, pairs):
        # up to 3000 pairs and 64 labels: one level's scan spans several
        # blocks of (cut, label) cells
        assert cuts_of(pairs) == oracle.find_cuts(pairs)

    def test_large_level_spans_many_blocks(self):
        rng = random.Random(5)
        values = [rng.randint(0, 400) / 4 for _ in range(3000)]
        pairs = sorted(((v, f"c{int(v) * 64 // 101 if rng.random() < 0.7 else rng.randrange(64)}")
                        for v in values), key=lambda p: p[0])
        assert 3000 * 64 > 8 * discretize._SCAN_CELLS
        cuts = cuts_of(pairs)
        assert len(cuts) > 10 and cuts == oracle.find_cuts(pairs)

    @pytest.mark.parametrize("pairs", SLICE_ORDER_CASES)
    def test_entropy_terms_summed_in_slice_order(self, pairs):
        # here summing the right-hand terms in the labels' order over the
        # whole level, not over the right-hand slice, moves a cut
        assert cuts_of(pairs) == oracle.find_cuts(pairs)

    @pytest.mark.parametrize("pairs", SLICE_ORDER_CASES)
    def test_slice_order_carried_across_scan_blocks(self, pairs, monkeypatch):
        # one cut per scan block: each block must carry the right side's
        # counts and label order from the blocks after it
        monkeypatch.setattr(discretize, "_SCAN_CELLS", 1)
        assert cuts_of(pairs) == oracle.find_cuts(pairs)

    def test_planted_scale_column(self):
        rng = random.Random(11)
        values = [rng.uniform(0, 600) for _ in range(1500)]
        labels = ["t" if rng.random() < (0.9 if v > 300 else 0.1) else "f" for v in values]
        pairs = sorted(zip(values, labels), key=lambda p: p[0])
        cuts = cuts_of(pairs)
        assert cuts and cuts == oracle.find_cuts(pairs)


def cluster_fixture():
    """Feature x perfectly separates the two cluster ids; z is constant."""
    feats = [
        FeatureSpec("x"),
        FeatureSpec("z"),
        FeatureSpec("o", kind="discrete"),
        FeatureSpec("bug", role="dependent"),
    ]
    rows = []
    ids = []
    for i in range(30):
        low = i < 15
        rows.append([0.0 + i * 0.01 if low else 100.0 + i, 5.0, "a" if i % 2 else "b", False])
        ids.append("c0" if low else "c1")
    return Dataset(feats, rows, MINIMIZE_RATE), ids


class TestRankFeatures:
    def test_separator_beats_constant(self):
        ds, ids = cluster_fixture()
        ranking = rank_features(encoded(ds), ids, beta=0.33)
        assert ranking.ranking[0][0] == "x"
        assert ranking.ranking[0][1] == pytest.approx(0.0)  # pure bins

    def test_beta_33_of_3_selects_1(self):
        ds, ids = cluster_fixture()
        ranking = rank_features(encoded(ds), ids, beta=0.33)
        assert ranking.selected == ["x"]

    def test_beta_100_selects_all(self):
        ds, ids = cluster_fixture()
        ranking = rank_features(encoded(ds), ids, beta=1.0)
        assert len(ranking.selected) == 3

    def test_single_cluster_id_keeps_column_order(self):
        ds, _ = cluster_fixture()
        ranking = rank_features(encoded(ds), ["only"] * len(ds.rows), beta=1.0)
        assert [name for name, _ in ranking.ranking] == ["x", "z", "o"]
        assert all(score == 0 for _, score in ranking.ranking)

    def test_identical_columns_tie_by_column_order(self):
        feats = [
            FeatureSpec("a"),
            FeatureSpec("b"),
            FeatureSpec("bug", role="dependent"),
        ]
        rows = [[float(i), float(i), False] for i in range(20)]
        ds = Dataset(feats, rows, MINIMIZE_RATE)
        ids = ["c0" if i < 10 else "c1" for i in range(20)]
        ranking = rank_features(encoded(ds), ids, beta=1.0)
        assert [name for name, _ in ranking.ranking] == ["a", "b"]
        assert ranking.ranking[0][1] == ranking.ranking[1][1]

    def test_noise_never_displaces_perfect_separator(self):
        rng = random.Random(7)
        feats = [FeatureSpec("sep")] + [FeatureSpec(f"noise{i}") for i in range(5)]
        feats.append(FeatureSpec("bug", role="dependent"))
        rows = []
        ids = []
        for i in range(40):
            low = i < 20
            rows.append([0.0 if low else 50.0] + [rng.random() for _ in range(5)] + [False])
            ids.append("c0" if low else "c1")
        ds = Dataset(feats, rows, MINIMIZE_RATE)
        ranking = rank_features(encoded(ds), ids, beta=0.33)
        assert ranking.ranking[0][0] == "sep"


@st.composite
def ranking_cases(draw):
    """A table as xtree's property draws it, with cluster ids that follow
    bands of its first feature's encoded values, with some noise."""
    train, _, _ = draw(tree_cases())
    k = draw(st.integers(1, 6))
    noise = draw(st.sampled_from([0.0, 0.3]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    ids = [int(x // 4) % k if abs(x) < 1e300 and rng.random() >= noise else rng.randrange(k)
           for x in encoded(train).cols[0]]  # NaN fails the bound test
    return train, ids, draw(st.sampled_from([0.33, 0.5, 1.0]))


class TestRankingMatchesRowListReference:
    """The ranking read from the encoded table equals the row-list reference:
    scores bit for bit, order and selection."""

    @settings(max_examples=100, deadline=None)
    @given(ranking_cases())
    def test_equal_rankings(self, case):
        train, ids, beta = case
        got = rank_features(encoded(train), ids, beta)
        assert (got.ranking, got.selected) == oracle.rank_features(train, ids, beta)
