"""The centre of a group algebra as a commutative Banach algebra.

Class functions under normalized convolution form a commutative algebra
whose Gelfand transform is evaluation of normalized characters.  The
algebra has a unique diagonal (a two-variable expansion of the identity);
its coefficient matrix drives everything: the amenability constant is the
weighted absolute sum of that matrix.
"""

import numpy as np

from zamen import (
    ClassFunction,
    amenability_constant,
    character_table,
    class_constants,
    convolve,
    diagonal,
    gelfand_transform,
    inverse_gelfand,
    verify_diagonal,
)
from zamen.groups import symmetric


def main():
    group = symmetric(4)
    table = character_table(group)
    rng = np.random.default_rng(7)

    f = ClassFunction(table.group_hash, rng.standard_normal(table.num_classes))
    g = ClassFunction(table.group_hash, rng.standard_normal(table.num_classes))

    spectral = convolve(f, g, table)
    # (f * g)_k = sum_ij a[i, j, k] f_i g_j / |G|, with a counting products x*y = z_k over C_i x C_j.
    counted = np.einsum("ijk,i,j->k", class_constants(group), f.coeffs, g.coeffs) / group.order
    print("S4 convolution, spectral vs counted over class products:")
    print(f"  max difference: {np.abs(spectral.coeffs - counted).max():.2e}")

    back = inverse_gelfand(gelfand_transform(f, table), table)
    print(f"  transform roundtrip error: {np.abs(back.coeffs - f.coeffs).max():.2e}")

    coefficients = diagonal(table)  # the k x k matrix c(C, C')
    report = verify_diagonal(table, coefficients)
    print(f"  diagonal is a module map + unit: residual {report.max_residual:.2e}")

    am = amenability_constant(table)
    print(f"  AM(ZL1(S4)) = {am.value:.10f}" + (f" = {am.rational}" if am.rational else ""))


if __name__ == "__main__":
    main()
