"""The circle quotient behaves: Fejer diagonals have norm exactly 1.

On the hypergroup of the circle modulo inversion (characters cos(k theta)),
the level-n diagonal built from classical Fejer coefficients has L1 norm
exactly 1 at every level, because it is half the sum of two shifted Fejer
kernels, both nonnegative with unit mass.  An alternative signed taper
breaks this; and the normalized characters of this hypergroup do not decay
pointwise, unlike SU(2)'s, which is the structural difference behind the
two outcomes.
"""

from zamen.hypergroups import HypergroupModel, character_decay_probe, diagonal_norm


def main():
    model = HypergroupModel("chebyshev")
    classical, signed = "fejer", "fejer-signed"

    print(f"{'n':>4s} {'classical taper':>16s} {'signed taper':>14s}")
    for n in (4, 8, 16, 32):
        a = diagonal_norm(model, classical, n)
        b = diagonal_norm(model, signed, n)
        print(f"{n:4d} {a.value:16.8f} {b.value:14.8f}")
    print("  classical coefficients pin the norm at 1; the signed string drifts.")
    print()

    thetas = [0.3, 1.0, 2.0]
    su2 = character_decay_probe(HypergroupModel("su2"), thetas, kmax=40)
    cheb = character_decay_probe(model, thetas, kmax=40)
    print("normalized character decay away from the endpoints (kmax = 40):")
    print(f"  SU(2):          tail max {su2.tail_max:.4f} vs bound {su2.bound:.4f} "
          f"-> decays: {su2.satisfied}")
    print(f"  circle quotient: tail max {cheb.tail_max:.4f} vs bound {cheb.bound:.4f} "
          f"-> decays: {cheb.satisfied}")


if __name__ == "__main__":
    main()
