"""Walk through the certified truncation machinery.

Rapid decay turns the geometric coefficient bound into an operator-norm
certificate: truncating the net at level m costs at most
pi*K/sqrt(6) * sup_{n>m} (n+1)^2 * C_t0 * (t/N)**n, where K is the
rapid-decay constant of the quantum group (caller-supplied; it has no
default).  The bound falls to zero, so any accuracy target eps gets a
smallest sufficient truncation level.
"""

from freeqg import (
    BoundParams,
    approx_identity_weights,
    choose_truncation,
    r_of,
    tail_bound_orth,
    tail_bound_unitary,
)

bounds = BoundParams(D=1.0, R=1.0, t0=2.5)
t, N = 2.5, 3

print(f"Tail bounds at t={t}, N={N} (orthogonal, D=1)")
for m in [0, 5, 10, 20, 40, 80, 120]:
    print(f"  m={m:>3}: ||T - T_m|| <= {tail_bound_orth(t, m, N, bounds):.6e}")

print("\nSmallest truncation level per accuracy target")
for k in range(1, 7):
    eps = 10.0**-k
    cert = choose_truncation(t, eps, N, "o", bounds)
    print(f"  eps=1e-{k}: m = {cert.m:>3}, achieved bound {cert.tail_bound:.6e}")
    assert cert.satisfied

print("\nNear t = N the order grows roughly like 1/(1 - t/N); the search stays O(log m)")
for t_near in (2.9, 2.99, 2.999):
    cert = choose_truncation(t_near, 1e-3, N, "o", BoundParams(D=1.0))
    print(f"  t={t_near:<5}: m = {cert.m:>5}, achieved bound {cert.tail_bound:.6e}")

print("\nThe unitary side uses the same envelope with its own constant R")
cert = choose_truncation(t, 1e-3, N, "u", BoundParams(R=2.0))
print(f"  R=2, eps=1e-3: m = {cert.m}, bound {cert.tail_bound:.6e}")
print(f"  (check: {tail_bound_unitary(t, cert.m, N, BoundParams(R=2.0)):.6e} <= 1e-3)")

print("\nApproximate-identity weights (label, coefficient at conjugate * dimension)")
print("  orthogonal, m=1:", approx_identity_weights("o", t, 1, N))
unit_weights = [(w or "e", round(x, 6)) for w, x in approx_identity_weights("u", t, 1, N)]
print("  unitary,    m=1:", unit_weights, f"  [r*t = {r_of(t, N) * t:.6f}]")
