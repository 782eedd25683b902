"""A tour of the entropy functionals on small distributions.

Walks through Shannon, Renyi, Tsallis, the hybrid entropy, and its
additive-scale (Aczel-Daroczy) form, then shows the two identities that tie
them together: the bridge through the Kolmogorov-Nagumo map and the
Shannon/Renyi decomposition of the additive form.
"""

import numpy as np

from escortropy import (
    Distribution,
    aczel_daroczy,
    escort,
    hybrid,
    kn_map,
    q_log,
    renyi,
    shannon,
    tsallis,
)

examples = {
    "fair coin": Distribution([0.5, 0.5]),
    "skewed coin": Distribution([0.8, 0.2]),
    "uniform 4": Distribution([0.25] * 4),
    "spiky 4": Distribution([0.7, 0.1, 0.1, 0.1]),
}

print("Functional values (nats) at q = 2:")
header = f"{'distribution':14s} {'shannon':>10s} {'renyi_1/q':>10s} {'tsallis':>10s} {'hybrid':>10s} {'additive':>10s}"
print(header)
for name, p in examples.items():
    print(
        f"{name:14s} {shannon(p):10.6f} {renyi(p, 0.5):10.6f} "
        f"{tsallis(p, 2.0):10.6f} {hybrid(p, 2.0):10.6f} "
        f"{aczel_daroczy(p, 2.0):10.6f}"
    )

# The hybrid entropy of a uniform distribution is the deformed logarithm of n,
# for every order: the escort of a uniform is uniform, so the exponential mean
# collapses to a single log.
print("\nhybrid(uniform_n, q) vs q_log(n):")
for n in (2, 8, 32):
    for q in (0.5, 2.0):
        u = Distribution(np.full(n, 1.0 / n))
        print(f"  n={n:2d} q={q}: hybrid={hybrid(u, q):.12f}  q_log={q_log(float(n), q):.12f}")

# Bridge: the Kolmogorov-Nagumo map sends the hybrid entropy to the additive
# form exactly, for any distribution and order.
print("\nbridge identity |kn_map(hybrid) - additive| on random draws:")
rng = np.random.default_rng(0)
worst = 0.0
for _ in range(1000):
    p = Distribution(rng.dirichlet(np.ones(rng.integers(2, 12))))
    q = float(rng.uniform(0.3, 3.0))
    worst = max(worst, abs(kn_map(hybrid(p, q), q) - aczel_daroczy(p, q)))
print(f"  worst over 1000 draws: {worst:.3e}")

# Decomposition: the additive form splits into Shannon and Renyi entropies of
# the escort distribution.
print("\ndecomposition additive = (1/q) S(escort) - ((1-q)/q) I_{1/q}(escort):")
p = examples["spiky 4"]
for q in (0.5, 2.0, 3.0):
    esc = Distribution(escort(p, q))
    decomposed = shannon(esc) / q - (1 - q) / q * renyi(esc, 1 / q)
    print(f"  q={q}: additive={aczel_daroczy(p, q):.12f}  decomposed={decomposed:.12f}")

# Everything collapses to Shannon as the order approaches 1.
print("\ncollapse at q = 1 +/- 1e-6 for the skewed coin:")
p = examples["skewed coin"]
for q in (1 - 1e-6, 1 + 1e-6):
    print(
        f"  q={q}: hybrid={hybrid(p, q):.9f} tsallis={tsallis(p, q):.9f} "
        f"shannon={shannon(p):.9f}"
    )
