import itertools
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from xham import parse_branch_spec, tau_root
from xham.tau import MAX_BRANCHES

from conftest import nth_root

# Branching constants the analysis relies on, to four decimals. The
# quoted 1.7888 belongs to (6, 5, 4^4, 3^3); the eight-branch variant
# (6, 5, 4^3, 3^3) actually roots lower, at 1.7378 (frozen from the
# bisection, residual below 1e-15), so the quoted figure still bounds it.
REGRESSION = [
    ((1, 1), 2.0),
    ((2, 2), math.sqrt(2)),
    ((1, 3), 1.4656),
    ((5, 1, 4, 4, 4, 4), 1.7921),
    ((7, 7, 3, 3, 3, 3, 3, 3), 1.8348),
    ((6, 4, 4, 4, 4, 3, 3, 3), 1.7605),
    ((5, 5, 4, 4, 4, 4, 4, 4), 1.6393),
    ((6, 5, 4, 4, 4, 4, 3, 3, 3), 1.7888),
    ((6, 5, 4, 4, 4, 3, 3, 3), 1.7378),
    ((5, 5, 4, 4, 4, 4, 4, 3), 1.6749),
    ((5, 5, 5, 5, 4, 4, 4, 4), 1.5971),
    ((6, 6, 5, 4, 3, 3, 3, 3), 1.7416),
    ((6, 5, 5, 4, 3, 3, 3, 3), 1.7549),
    ((4, 3, 2, 2), 1.7107),
]


class TestTauRoot:
    def test_two_unit_branches(self):
        assert tau_root((1, 1)) == pytest.approx(2.0, abs=1e-9)

    def test_balanced_pair(self):
        assert tau_root((2, 2)) == pytest.approx(math.sqrt(2), abs=1e-9)

    def test_unbalanced_pair(self):
        assert tau_root((1, 3)) == pytest.approx(1.4656, abs=1e-4)

    def test_single_branch_is_exactly_one(self):
        assert tau_root((3,)) == 1.0

    def test_empty_vector_rejected(self):
        with pytest.raises(ValueError):
            tau_root(())

    def test_non_positive_rejected(self):
        with pytest.raises(ValueError):
            tau_root((2, 0))

    @pytest.mark.parametrize("decrements,expected", REGRESSION)
    def test_regression_table(self, decrements, expected):
        assert tau_root(decrements) == pytest.approx(expected, abs=1e-4)

    @pytest.mark.parametrize("decrements,_", REGRESSION)
    def test_root_residual(self, decrements, _):
        root = tau_root(decrements)
        residual = 1.0 - sum(root ** -r for r in decrements)
        assert abs(residual) < 1e-8

    def test_balanced_branching_effect(self):
        assert tau_root((2, 2)) < tau_root((1, 3))

    def test_quoted_bound_still_covers_eight_branch_variant(self):
        assert tau_root((6, 5, 4, 4, 4, 3, 3, 3)) <= 1.7888

    @given(st.lists(st.integers(1, 7), min_size=2, max_size=6))
    def test_permutation_invariance(self, decrements):
        base = tau_root(tuple(decrements))
        for perm in itertools.islice(itertools.permutations(decrements), 6):
            assert tau_root(perm) == pytest.approx(base, abs=1e-12)


class TestParseBranchSpec:
    def test_exponent_shorthand(self):
        assert parse_branch_spec("5^2 3^3") == (5, 5, 3, 3, 3)

    def test_plain_tokens(self):
        assert parse_branch_spec("1 3") == (1, 3)

    def test_longer_expansion(self):
        assert parse_branch_spec("7^2 3^6") == (7, 7, 3, 3, 3, 3, 3, 3)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            parse_branch_spec("0 3")

    def test_malformed_exponent_rejected(self):
        with pytest.raises(ValueError):
            parse_branch_spec("3^x")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            parse_branch_spec("   ")

    def test_branch_count_is_capped_before_expanding(self):
        assert len(parse_branch_spec(f"2^{MAX_BRANCHES - 1} 3")) == MAX_BRANCHES
        for spec in (f"2^{MAX_BRANCHES} 3", "2^1000000000", f"1 2^{10**18}"):
            with pytest.raises(ValueError, match="branches"):
                parse_branch_spec(spec)


class TestNthRoot:
    def test_subset_count_bases(self):
        assert nth_root(7, 4) == pytest.approx(1.6266, abs=1e-4)
        assert nth_root(11, 5) == pytest.approx(1.6154, abs=1e-4)
        assert nth_root(2, 2) == pytest.approx(1.4142, abs=1e-4)

    def test_degree_validation(self):
        with pytest.raises(ValueError):
            nth_root(7, 0)
