"""Escort distributions and the two ways to escort a joint.

The escort transform reweights a distribution toward its rare (q < 1) or
frequent (q > 1) outcomes, and the escort of order 1/q undoes it. For joints there are two
natural constructions, and they disagree exactly when conditional structure
and the escort transform fail to commute.
"""

import numpy as np

from escortropy import (
    Distribution,
    JointDistribution,
    escort,
    escort_ratio,
    is_escort_consistent,
    joint_escort_correct,
    joint_escort_naive,
    marginal_a,
    mutual_information,
    product_joint,
)

p = Distribution([0.8, 0.2])
print("escort of [0.8, 0.2]:")
for q in (0.5, 1.0, 2.0, 5.0):
    esc = escort(p, q)
    back = escort(Distribution(esc), 1 / q)
    print(f"  q={q}: escort={np.round(esc, 6)} "
          f"round-trip error={np.abs(back - p.weights).max():.2e}")

# A product joint: the two constructions coincide and the naive escort
# factorizes into the escorts of the marginals.
independent = product_joint(Distribution([0.3, 0.7]), Distribution([0.8, 0.2]))
print("\nproduct joint: max |naive - correct| =",
      f"{np.abs(joint_escort_naive(independent, 2) - joint_escort_correct(independent, 2)).max():.2e}")

# A generic dependent joint: the naive construction is no longer a genuine
# joint distribution -- its A-marginal is not the escort of the A-marginal.
dependent = JointDistribution([[0.2, 0.1], [0.3, 0.4]])
naive = joint_escort_naive(dependent, 2.0)
correct = joint_escort_correct(dependent, 2.0)
target = escort(marginal_a(dependent), 2.0)
print(f"\ndependent joint (MI={mutual_information(dependent):.4f}) at q=2:")
print("  naive  =", np.round(naive, 6).tolist())
print("  correct=", np.round(correct, 6).tolist())
print("  naive A-marginal        =", np.round(naive.sum(axis=0), 6))
print("  escort of the A-marginal=", np.round(target, 6))
print("  correct A-marginal      =", np.round(correct.sum(axis=0), 6), "(matches by construction)")

# The cellwise ratio correct/naive has a closed form that only depends on the
# column, so it stays finite even on zero cells.
print("  ratio (constant down each column):")
print("   ", np.round(escort_ratio(dependent, 2.0), 6).tolist())

# The surprise: dependence alone is not what separates the constructions. The
# symmetric joint below is dependent, but its conditional columns are
# permutations of each other, so the column power sums agree at every order
# and the two constructions coincide exactly.
symmetric = JointDistribution([[0.4, 0.1], [0.1, 0.4]])
print(f"\nsymmetric dependent joint (MI={mutual_information(symmetric):.4f}):")
for q in (0.5, 2.0, 3.0):
    diff = np.abs(joint_escort_naive(symmetric, q) - joint_escort_correct(symmetric, q)).max()
    print(f"  q={q}: max |naive - correct| = {diff:.2e}  consistent={is_escort_consistent(symmetric, q)}")
print("what the constructions need is equal column power sums, which")
print("independence implies but permuted columns also provide.")
