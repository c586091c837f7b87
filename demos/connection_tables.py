"""Walk through the connection coefficients between the two families.

Every Chebyshev polynomial is an integer combination of Fibonacci
polynomials, and every Fibonacci polynomial is a positive rational
combination of Chebyshev polynomials; the coefficients are values of
terminating Gauss series.  This script builds a few expansions from the
closed forms, reconstructs the source polynomials from them, and shows the
triangular-elimination oracle recovering the same numbers with no
hypergeometric machinery at all.
"""

from fibcheb import Direction, chebyshev_t, expand, fibonacci_poly, oracle_expand
from fibcheb.connection import row

print("A Chebyshev polynomial in the Fibonacci basis")
print("---------------------------------------------")
for j in (2, 3, 4):
    expansion = expand(j, Direction.T_IN_F)
    pieces = " + ".join(
        f"({term.coefficient}) F_{term.target_index}" for term in expansion.terms
    )
    print(f"T_{j} = {pieces}")
    assert expansion.reconstruct() == chebyshev_t(j)
print("reconstruction is exact (coefficient-wise polynomial equality)")
print()

print("A Fibonacci polynomial in both Chebyshev bases")
print("----------------------------------------------")
for direction, label in ((Direction.F_IN_T, "T"), (Direction.F_IN_U, "U")):
    expansion = expand(5, direction)
    pieces = " + ".join(
        f"({term.coefficient}) {label}_{term.target_index}" for term in expansion.terms
    )
    print(f"F_6 = {pieces}")
    assert expansion.reconstruct() == fibonacci_poly(6)
print("note: every coefficient in these expansions is strictly positive")
print()

print("Independent oracle: leading-term elimination")
print("--------------------------------------------")
source = chebyshev_t(6)
print(f"T_6 = {source}")
# both routes give (target indices, numerators, common denominator)
closed_form = row(6, Direction.T_IN_F)
eliminated = oracle_expand(source, Direction.T_IN_F.target_basis)
print("closed-form coefficients:", closed_form)
print("elimination coefficients:", eliminated)
assert closed_form == eliminated
print("the two routes agree term by term")
