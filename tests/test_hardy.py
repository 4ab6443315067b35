from fractions import Fraction

import pytest

from starbundle.hardy import SymbolFunction, hardy_index

Z = SymbolFunction.mode(1)


@pytest.mark.parametrize(
    "f, method, winding",
    [
        (Z, "exact-monomial", 1),
        (SymbolFunction.mode(-2), "exact-monomial", -2),
        (SymbolFunction.constant(2) + Z, "neumann", 0),
        (SymbolFunction.constant(1) + SymbolFunction.mode(1, 3), "quadrature", 1),
        (SymbolFunction.constant(Fraction(1, 2)) + Z, "quadrature", 1),
    ],
    ids=["z", "z^-2", "2+z", "1+3z", "1/2+z"],
)
def test_hardy_index_is_minus_winding(f, method, winding):
    # ind(T_f) = -winding(f); winding_number counts roots inside the disk
    assert f.winding_number() == winding
    result = hardy_index(f, 40, 40)
    assert result.parametrix_method == method
    assert abs(result.value + winding) < 1e-6
