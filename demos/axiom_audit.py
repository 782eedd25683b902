"""Run the axiom verifiers and read their verdicts.

Continuity is an empirical Lipschitz probe, maximality a search of the
two-value families where the maximum of the entropy must lie, expansibility an
exact comparison, and the two additivity checks seeded ensemble statistics. Margins are oriented so that
a verdict passes iff its margin is nonnegative.
"""

import numpy as np

from escortropy import (
    Distribution,
    check_additivity_dependent,
    check_additivity_independent,
    check_continuity,
    check_expansibility,
    check_maximality,
    hybrid,
)


def describe(verdict):
    state = "pass" if verdict.passed else "FAIL"
    extra = f" modulus={verdict.modulus:.3f}" if verdict.modulus is not None else ""
    print(f"  [{state}] {verdict.axiom} q={verdict.q} n={verdict.n} "
          f"margin={verdict.margin:+.3e}{extra}")


print("continuity probes:")
for q in (0.6, 2.0):
    describe(check_continuity(q, n=8, seed=0, delta=1e-4))

print("\nexpansibility (exact, relies on 0^q ln 0 = 0):")
for q in (0.5, 2.0):
    describe(check_expansibility(q, Distribution([0.5, 0.3, 0.2])))

print("\nmaximality, q = 1 and q = 2 (uniform wins):")
for q in (1.0, 2.0):
    for n in (2, 4, 8):
        describe(check_maximality(q, n=n))

print("\nmaximality at low orders (uniform can lose):")
for q, n in ((0.3, 2), (0.5, 2), (0.5, 4), (0.5, 8)):
    verdict = check_maximality(q, n=n)
    describe(verdict)
    if not verdict.passed:
        best = verdict.witness.weights
        uniform = Distribution(np.full(n, 1.0 / n))
        print(f"         best point {np.round(best, 4).tolist()}")
        print(f"         value {hybrid(verdict.witness, verdict.q):.6f} "
              f"vs uniform {hybrid(uniform, verdict.q):.6f}")

print("\ncomposition rule over seeded ensembles:")
for q in (0.5, 2.0):
    describe(check_additivity_independent(q, seed=0, trials=300))
describe(check_additivity_dependent(2.0, seed=0, trials=300, mi_floor=0.05))
print("\n(the dependent verdict passes when violations are observed in >= 99%")
print("of the trials; at q = 1 the same ensemble shows no violations at all)")
describe(check_additivity_dependent(1.0, seed=0, trials=100, mi_floor=0.05))
