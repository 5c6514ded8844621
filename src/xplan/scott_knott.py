"""Scott-Knott ranking of repeated measurements.

Methods are sorted by median, ties by mean and then by name, so a method
never ranks below one it beats and the input order moves no rank. They are
then recursively split at the boundary that maximizes the between-group
sum of squared mean differences. A split is kept only when a bootstrap
test (99% confidence) and the A12 effect size (>= 0.6) both call the
halves different. Methods left in one group share a rank.
"""

from __future__ import annotations

import math
import random
from dataclasses import asdict, dataclass

from xplan.data_model import median

BOOTSTRAPS = 512
CONFIDENCE = 0.99
A12_SMALL = 0.6


@dataclass
class MethodSamples:
    method: str
    values: list

    @property
    def median(self):
        return median(self.values)


# fmean, median (``data_model``'s) and quartiles take the float steps of the
# ``statistics`` functions they stand for; that module loads ``fractions`` and
# ``decimal``

def fmean(xs):
    """``statistics.fmean`` of a non-empty list: its exactly rounded sum over its length."""
    return math.fsum(xs) / len(xs)


def quartiles(values):
    """Q1 and Q3 of ``statistics.quantiles(values, n=4, method="inclusive")``,
    or the one value twice."""
    vals = sorted(values)
    if len(vals) == 1:
        return vals[0], vals[0]

    def cut(i):  # interpolated at i quarters of the way from the lowest to the highest
        j, delta = divmod(i * (len(vals) - 1), 4)
        return (vals[j] * (4 - delta) + vals[j + 1] * delta) / 4

    return cut(1), cut(3)


def a12(m, n):
    """Vargha-Delaney effect size: P(x > y) + 0.5 P(x == y)."""
    more = ties = 0
    for x in m:
        for y in n:
            if x > y:
                more += 1
            elif x == y:
                ties += 1
    return (more + 0.5 * ties) / (len(m) * len(n))


def bootstrap_test(m, n, b=BOOTSTRAPS, conf=CONFIDENCE, rng=None):
    """Two-sided pooled-null bootstrap of the mean difference.

    Returns True when the samples look different at the given confidence.
    """
    rng = rng or random.Random(1)
    obs = abs(fmean(m) - fmean(n))
    if obs == 0:
        return False
    pool = list(m) + list(n)
    hits = 0
    for _ in range(b):
        ym = fmean([rng.choice(pool) for _ in range(len(m))])
        yn = fmean([rng.choice(pool) for _ in range(len(n))])
        if abs(ym - yn) >= obs:
            hits += 1
    return hits / b < 1 - conf


def _different(m_vals, n_vals, rng):
    effect = a12(m_vals, n_vals)
    if max(effect, 1 - effect) < A12_SMALL:
        return False
    return bootstrap_test(m_vals, n_vals, rng=rng)


@dataclass
class RankEntry:
    rank: int
    method: str
    median: float
    iqr: float
    q1: float
    q3: float


@dataclass
class RankedReport:
    entries: list

    def to_json(self):
        return [asdict(e) for e in self.entries]


def scott_knott_rank(samples, rng=None):
    """Rank methods; indistinguishable methods share a rank number."""
    if not samples:
        raise ValueError("no samples to rank")
    rng = rng or random.Random(1)
    ordered = sorted(samples, key=lambda s: (s.median, fmean(s.values), s.method))
    groups = []

    def divide(methods):
        if len(methods) < 2:
            groups.append(methods)
            return
        flat = [v for s in methods for v in s.values]
        mu = fmean(flat)
        best = None
        for cut in range(1, len(methods)):
            left = [v for s in methods[:cut] for v in s.values]
            right = [v for s in methods[cut:] for v in s.values]
            e = (
                len(left) / len(flat) * (fmean(left) - mu) ** 2
                + len(right) / len(flat) * (fmean(right) - mu) ** 2
            )
            if best is None or e > best[0]:
                best = (e, cut, left, right)
        _, cut, left, right = best
        if _different(left, right, rng):
            divide(methods[:cut])
            divide(methods[cut:])
        else:
            groups.append(methods)

    divide(ordered)
    entries = []
    for rank, group in enumerate(groups, start=1):
        for s in group:
            q1, q3 = quartiles(s.values)
            entries.append(RankEntry(rank, s.method, s.median, q3 - q1, q1, q3))
    return RankedReport(entries)


def render_report(ranked, width=20):
    """Fixed-width table with a quartile strip per method: dashes span
    Q1..Q3 and ``*`` marks the median, scaled to the global value range."""
    if not ranked.entries:
        raise ValueError("empty report")
    lo = min(e.q1 for e in ranked.entries)
    hi = max(e.q3 for e in ranked.entries)
    span = hi - lo

    def col(v):
        if span <= 0:
            return 0
        return min(width - 1, int((v - lo) / span * (width - 1)))

    name_w = max(9, max(len(e.method) for e in ranked.entries))
    lines = [f"{'Rank':<5} {'Treatment':<{name_w}} {'Median':>8} {'IQR':>8}  "]
    lines[0] += "Quartiles"
    for e in ranked.entries:
        strip = [" "] * width
        for i in range(col(e.q1), col(e.q3) + 1):
            strip[i] = "-"
        strip[col(e.median)] = "*"
        lines.append(
            f"{e.rank:<5} {e.method:<{name_w}} {e.median:>8.2f} {e.iqr:>8.2f}  {''.join(strip)}"
        )
    return "\n".join(lines)
