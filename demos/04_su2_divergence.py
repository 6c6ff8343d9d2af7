"""Why SU(2)'s central L1 algebra has no bounded approximate identity.

On the conjugacy-class hypergroup of SU(2), truncate the expansion of the
diagonal at level n.  Whatever taper is used, the L1 norm of the truncated
diagonal diverges: a closed-form lower bound (pairing against sign-type
test functions) already crosses 5 by n = 23 for sharp truncation, and the
quadrature values race ahead of the bound.  In contrast the plain kernel
sum_k a_k chi_k stays small for the tapered scheme, so one-variable
approximate identities exist; two-variable (diagonal) control is what
fails.
"""

from zamen.hypergroups import HypergroupModel, bai_norm, diagonal_norm, su2_divergence_lower_bound


def main():
    model = HypergroupModel("su2")
    sharp, tapered = "dirichlet", "fejer-smoothed"

    print("sharp truncation (coefficients = dimension weights):")
    print(f"{'n':>4s} {'lower bound':>12s} {'diagonal norm':>14s}")
    for n in (2, 4, 8, 16, 32):
        bound = su2_divergence_lower_bound(sharp, n)
        norm = diagonal_norm(model, sharp, n)
        print(f"{n:4d} {bound:12.4f} {norm.value:14.4f}")
    crossing = next(n for n in range(1, 101) if su2_divergence_lower_bound(sharp, n) > 5)
    print(f"  bound first exceeds 5 at n = {crossing}")
    print()

    print("tapered truncation (Fejer-style smoothing):")
    print(f"{'n':>4s} {'kernel norm':>12s} {'diagonal norm':>14s}")
    for n in (8, 16, 32):
        kernel = bai_norm(model, tapered, n)
        norm = diagonal_norm(model, tapered, n)
        print(f"{n:4d} {kernel.value:12.4f} {norm.value:14.4f}")
    print("  kernel norms stay bounded while diagonal norms more than triple")
    print("  per doubling: no choice of coefficients gives a bounded diagonal.")


if __name__ == "__main__":
    main()
