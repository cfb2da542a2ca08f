import random
from fractions import Fraction

import pytest

from oracles import mul
from pseudopoly import InputError, InternalInvariantError, polyarith
from pseudopoly.polyarith import (
    clear_to_int_pair,
    degree,
    derivative,
    divmod_poly,
    gcd_poly,
    series_from_rational,
    squarefree_factors,
    trim,
)


def F(*values):
    return [Fraction(v) for v in values]


class TestBasics:
    def test_trim_and_degree(self):
        assert trim([1, 2, 0, 0]) == [1, 2]
        assert degree([0, 0]) == -1
        assert degree([3]) == 0

    def test_divmod_exact(self):
        quotient, remainder = divmod_poly([1, 0, -1], [1, 1])
        assert quotient == [1, -1]
        assert remainder == []

    def test_divmod_with_remainder(self):
        # 2^2 (2 + x^2) = (2x - 1)(1 + 2x) + 9
        quotient, remainder = divmod_poly([2, 0, 1], [1, 2])
        assert quotient == [-1, 2]
        assert remainder == [9]

    def test_division_by_zero(self):
        with pytest.raises(InputError):
            divmod_poly([1, 2], [])

    def test_random_divmod_identity(self):
        rng = random.Random(13)
        for _ in range(25):
            p = trim([rng.randint(-5, 5) for _ in range(rng.randint(1, 8))])
            q = trim([rng.randint(-5, 5) for _ in range(rng.randint(1, 5))])
            if not q:
                continue
            quotient, remainder = divmod_poly(p, q)
            scale = q[-1] ** max(0, len(p) - len(q) + 1)
            product = mul(quotient, q)
            recombined = [
                (product[i] if i < len(product) else 0)
                + (remainder[i] if i < len(remainder) else 0)
                for i in range(max(len(product), len(remainder)))
            ]
            assert trim(recombined) == [scale * c for c in p]
            assert degree(remainder) < degree(q)
            assert all(type(c) is int for c in quotient + remainder)


class TestGcd:
    def test_common_factor(self):
        p = mul([1, -1], [1, 2])  # (1-x)(1+2x)
        q = mul([1, -1], [3, 1])  # (1-x)(3+x)
        assert gcd_poly(p, q) == [-1, 1]

    def test_coprime(self):
        assert gcd_poly([0, 1], [1, -1, -1]) == [1]

    def test_zero_handling(self):
        assert gcd_poly([], [2, 4]) == [1, 2]
        assert gcd_poly([], [-2, -4]) == [1, 2]
        assert gcd_poly([], [6]) == [1]
        assert gcd_poly([], []) == []


class TestSquarefree:
    def test_multiplicities(self):
        # (x - 1)^2 (x + 2), expanded lowest degree first
        p = mul(mul([-1, 1], [-1, 1]), [2, 1])
        assert squarefree_factors(p) == [([2, 1], 1), ([-1, 1], 2)]

    def test_product_reconstructs_monic_input(self):
        rng = random.Random(17)
        for _ in range(20):
            p = [rng.choice([-6, -1, 1, 4])]
            for _ in range(rng.randint(1, 4)):
                root = rng.randint(-3, 3)
                mult = rng.randint(1, 3)
                for _ in range(mult):
                    p = mul(p, [-root, 1])
            rebuilt = [1]
            for factor, multiplicity in squarefree_factors(p):
                for _ in range(multiplicity):
                    rebuilt = mul(rebuilt, factor)
            content = p[-1]  # every factor is monic, so p / content is monic
            assert rebuilt == [c // content for c in p]

    def test_squarefree_parts_have_no_repeated_roots(self):
        p = mul(mul([1, 1], [1, 1]), mul([1, 1], [2, 1]))  # (1+x)^3 (2+x)
        for factor, _ in squarefree_factors(p):
            assert degree(gcd_poly(factor, derivative(factor))) == 0

    def test_gcd_that_does_not_divide_raises(self, monkeypatch):
        # Yun's loop divides by gcd(b, b'), which divides b exactly; a gcd
        # with an extra factor x + 1 leaves a remainder, which is a bug
        p = mul(mul([-2, 1], [-2, 1]), [3, 1])  # (x - 2)^2 (x + 3)
        assert squarefree_factors(p) == [([3, 1], 1), ([-2, 1], 2)]
        original = polyarith.gcd_poly
        monkeypatch.setattr(
            polyarith, "gcd_poly", lambda a, b: mul(original(a, b), [1, 1])
        )
        with pytest.raises(InternalInvariantError, match="polynomial quotient is not exact"):
            squarefree_factors(p)

    def test_factors_are_primitive_with_positive_lead(self):
        # (3 - 2x)^2 (5 + 4x^2) times the content -7
        p = mul([-7], mul(mul([3, -2], [3, -2]), [5, 0, 4]))
        assert squarefree_factors(p) == [([5, 0, 4], 1), ([-3, 2], 2)]


class TestSeries:
    def test_geometric(self):
        assert series_from_rational([1], [1, -1], 5) == [1, 1, 1, 1, 1]

    def test_requires_unit_constant_term(self):
        with pytest.raises(InputError):
            series_from_rational([1], [0, 1], 3)

    def test_matches_recurrence(self):
        # x / (1 - x - x^2) generates the Fibonacci numbers
        coeffs = series_from_rational([0, 1], [1, -1, -1], 12)
        for k in range(2, 12):
            assert coeffs[k] == coeffs[k - 1] + coeffs[k - 2]

    def test_fraction_fallback(self):
        assert series_from_rational(F(1), [2, -1], 3) == F("1/2", "1/4", "1/8")


class TestClearToIntPair:
    def test_joint_scaling_preserves_ratio(self):
        num, den = clear_to_int_pair([6, 4], [12, -2])
        assert num.coefficients == (3, 2)
        assert den.coefficients == (6, -1)

    def test_sign_anchored_at_constant_term(self):
        num, den = clear_to_int_pair([1], [-1, 1])
        assert den.coefficients == (1, -1)
        assert num.coefficients == (-1,)

    def test_sign_anchored_at_lead_without_constant_term(self):
        num, den = clear_to_int_pair([2], [0, -4])
        assert den.coefficients == (0, 2)
        assert num.coefficients == (-1,)

    def test_joint_content_is_one(self):
        num, den = clear_to_int_pair([2, 4], [2])
        assert num.coefficients == (1, 2)
        assert den.coefficients == (1,)
