"""Where q-additivity of the hybrid entropy holds, breaks, and gets repaired.

The composition rule D(A,B) = D(A) (+)_q D(B|A) needs a conditional entropy.
Defining it by subtraction in the additive scale always closes the rule;
defining it as the escort-weighted mean over A outcomes (the axiomatic route)
closes the rule at order q exactly where s_gap vanishes at q. That holds
whenever the two joint escort constructions coincide at q, and also on joints
where they do not: at isolated orders of some, and at every order of others,
such as [[1/3, 1/3], [1/3, 0]]. The difference between the routes is exactly
(1/q) times the s_gap quantity, it is sandwiched by min/max bounds, and an
explicit exponential tilt repairs it.
"""

import numpy as np

from escortropy import (
    Distribution,
    JointDistribution,
    chain_rule_report,
    product_joint,
    random_joint,
)
from escortropy.axioms import sample_dependent_joint


def show(name, joint, q):
    rep = chain_rule_report(joint, q)
    print(f"{name} at q={q}:")
    print(f"  conditional (chain route)     = {rep.conditional_chain:+.9f}")
    print(f"  conditional (axiomatic route) = {rep.conditional_axiomatic:+.9f}")
    print(f"  gap = {rep.gap:+.3e}   s_gap/q = {rep.s_gap / q:+.3e}")
    print(f"  sandwich: {rep.lower_bound:+.6f} <= {rep.s_gap:+.6f} <= {rep.upper_bound:+.6f}")
    print(f"  residual = {rep.residual:+.3e}   after correction = {rep.corrected_residual:+.3e}")


# Independent events: both routes agree and the rule closes on its own.
independent = product_joint(Distribution([0.3, 0.7]), Distribution([0.8, 0.2]))
show("independent joint", independent, 2.0)

# Dependent events: the routes split, the rule fails with the axiomatic
# conditional, and the tilt restores it exactly.
dependent = JointDistribution([[0.2, 0.1], [0.3, 0.4]])
print()
show("dependent joint", dependent, 2.0)
print()
show("dependent joint", dependent, 0.5)

# The s_gap is genuinely sign-indefinite: a concentrated majority column makes
# the cross entropy fall below the naive escort's own entropy.
print()
show("zero-cell joint", JointDistribution([[0.1, 0.45], [0.0, 0.45]]), 2.0)

# Ensemble view: over random dependent joints the violation is the rule, not
# the exception, and the correction always closes it.
print("\nensemble of 200 dependent joints (MI > 0.05) at q = 2:")
residuals, corrected, gaps = [], [], []
for t in range(200):
    rep = chain_rule_report(sample_dependent_joint(17, t, mi_floor=0.05), 2.0)
    residuals.append(abs(rep.residual))
    corrected.append(abs(rep.corrected_residual))
    gaps.append(rep.s_gap)
print(f"  |residual|: min={min(residuals):.3e} median={np.median(residuals):.3e} max={max(residuals):.3e}")
print(f"  |corrected residual|: max={max(corrected):.3e}")
print(f"  s_gap sign split: {sum(g > 0 for g in gaps)} positive / {sum(g < 0 for g in gaps)} negative")

# Control: at q = 1 everything collapses to the classical Shannon chain rule.
print("\ncontrol at q = 1 (classical chain rule):")
rep = chain_rule_report(random_joint(3, 4, 99), 1.0)
print(f"  gap = {rep.gap:+.3e}, residual = {rep.residual:+.3e}")
