"""Walk through the central multiplier nets and their decay.

For t in [t0, N) the net coefficients u_n(t)/u_n(N) (orthogonal) and a_t(w)
(unitary) are unital contractions that decay geometrically: each one sits
below decay_constant(t0) * (t/N)**level.  As t -> N they climb to 1 level by
level, which is the coefficient picture of convergence to the identity.
"""

import numpy as np

from freeqg import (
    a_coeff,
    coeff_ratio,
    decay_constant,
    k_a,
    r_of,
    truncated_coeffs,
)

N = 4
T0 = 2.5
C = decay_constant(T0)
print(f"decay constant at t0={T0}: C = {C:.6f} (exactly 4/3)")

print(f"\nOrthogonal coefficients vs the geometric envelope (t=3.2, N={N})")
t = 3.2
for n in range(0, 13, 2):
    value = coeff_ratio(n, t, N, T0)
    envelope = C * (t / N) ** n
    print(f"  n={n:>2}: {value:.8f}  <=  {envelope:.8f}")
    assert value <= envelope + 1e-12

print(f"\nUnitary coefficients carry an extra circle damping r(t) = {r_of(t, N, T0):.6f}")
for w in ["", "a", "ab", "ba", "aa", "abab"]:
    print(f"  a_t({w or 'e':>4}) = {a_coeff(w, t, N, T0):.8f}"
          f"   envelope {C * (t / N) ** len(w):.8f}")

print("\nCoefficient tables are plain label -> value maps")
table = truncated_coeffs("u", t, 2, N, t0=T0)
for label, value in table.entries.items():
    print(f"  {label or 'e':>3}: {value:.8f}")
print(f"  sup norm {max(table.entries.values())} (the trivial label carries exactly 1)")
print(f"  k_a = sup (n+1)^2 max|coeff| = {k_a(table):.6f}")

print(f"\nConvergence to the identity as t -> {N}")
for t in np.linspace(T0, N, 7):
    row = "  t=%.3f:  " % t + "  ".join(
        f"{coeff_ratio(n, float(t), N, T0):.6f}" for n in (1, 2, 4, 8)
    )
    print(row)
print("  (levels 1, 2, 4, 8; every column increases to 1.0)")
