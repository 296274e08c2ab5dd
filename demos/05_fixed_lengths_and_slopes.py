"""Fixed-length selection, threshold robustness, and decay slopes.

Builds a synthetic corpus whose dependency distances follow a two-regime
law, selects the best model per sentence length under AIC, scans how the
most-voted family changes as thinly observed lengths are dropped, and reads
the decay slopes off the winning two-regime fits.
"""

import numpy as np

import depdist.estimation as est
from depdist import DepTree, build_samples

rng = np.random.default_rng(7)


def synthetic_sentence(n, rng):
    """A random tree whose distances mimic a steep-then-shallow decay."""
    heads = [0] * n
    root = int(rng.integers(0, n))
    placed = [root]
    for i in range(n):
        if i == root:
            continue
        spans = np.abs(np.array(placed) - i)
        weight = np.where(spans <= 4, 0.5 ** spans, 0.5**4 * 0.9 ** spans)
        head = placed[int(rng.choice(len(placed), p=weight / weight.sum()))]
        heads[i] = head + 1
        placed.append(i)
    return DepTree(tuple(heads))


corpus = [synthetic_sentence(int(n), rng)
          for n in rng.integers(4, 14, size=400)]
sset = build_samples(corpus, language="Synthetic", collection="DEMO")

reports = {}
for n, sample in sset.by_length.items():
    reports[n] = est.select(sample, criterion="aic")
print("best model per sentence length (AIC):")
for n, report in reports.items():
    count = sset.sentence_counts[n]
    print(f"  n={n:>2} ({count:>3} sentences): model {report.best.id}")

thresholds = [1, 5, 20, 40]
scan = est.threshold_scan(reports, sset.sentence_counts, thresholds)
print("\nmost-voted family vs minimum sentences per length:")
for t, family in scan.items():
    print(f"  threshold {t:>3}: family {family}")

print("\nmixed-lengths selection and slopes:")
mixed = est.select(sset.pooled, criterion="aic")
print(f"  best model: {mixed.best.id}")
if mixed.best.is_two_regime:
    slopes = est.slope_analysis(mixed.fits[mixed.best], sset.pooled)
    print(f"  q1 = {slopes.q1:.3f} (slope {slopes.slope1:+.3f}), "
          f"q2 = {slopes.q2:.3f} (slope {slopes.slope2:+.3f}), "
          f"ratio = {slopes.ratio:.2f}")
