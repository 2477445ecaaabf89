from __future__ import annotations

import pytest
from hypothesis import given, settings

from sascone import (
    BaseMismatchError,
    InvalidParameterError,
    NotFanoError,
    OddTotalError,
    b_invariant_wcone,
    bouquet_label,
    bouquet_level_set,
    bouquet_partition,
    c1_gamma_coeff_sphere_join,
    spin_check,
    torsion_order,
    validate_join,
)
from conftest import CP1, CP2, GENUS2, join_strategy


def _join(l1, l2, w1, w2, base=CP1):
    return validate_join(l1, l2, w1, w2, base)


class TestC1Coefficient:
    def test_family_12_1_at_l2_5(self):
        assert c1_gamma_coeff_sphere_join(2, _join(1, 5, 12, 1, CP2)) == 2

    def test_zero_coefficient_join(self):
        # l1 = p + 1 and l2 = w1 + w2 makes the class vanish
        assert c1_gamma_coeff_sphere_join(2, _join(3, 13, 12, 1, CP2)) == 0

    def test_four_bouquet_value(self):
        assert c1_gamma_coeff_sphere_join(1, _join(4, 1, 1, 1)) == -6

    def test_four_bouquet_constant_across_members(self):
        for l1, w1, w2 in ((4, 1, 1), (1, 5, 3), (2, 3, 1), (1, 7, 1)):
            assert c1_gamma_coeff_sphere_join(1, _join(l1, 1, w1, w2)) == -6

    def test_base_mismatch(self):
        with pytest.raises(BaseMismatchError):
            c1_gamma_coeff_sphere_join(2, _join(1, 1, 1, 1, CP1))
        with pytest.raises(BaseMismatchError):
            c1_gamma_coeff_sphere_join(1, _join(1, 1, 12, 1, GENUS2))


class TestSpin:
    def test_spin_family(self):
        assert spin_check(2, _join(1, 5, 12, 1, CP2))

    def test_non_spin_family(self):
        assert c1_gamma_coeff_sphere_join(2, _join(2, 5, 3, 1, CP2)) == 7
        assert not spin_check(2, _join(2, 5, 3, 1, CP2))

    def test_even_by_parity(self):
        assert spin_check(1, _join(2, 1, 1, 1))


class TestTorsion:
    @pytest.mark.parametrize(
        "l1,w1,w2,expected", [(1, 12, 1, 12), (2, 3, 1, 12), (1, 1, 1, 1)]
    )
    def test_values(self, l1, w1, w2, expected):
        assert torsion_order(_join(l1, 1, w1, w2, CP2)) == expected


class TestBouquetLabel:
    def test_regular_member(self):
        label = bouquet_label(_join(4, 1, 1, 1))
        assert (label.k, label.j, label.l, label.i) == (4, 4, 1, 1)

    def test_weighted_member(self):
        label = bouquet_label(_join(1, 1, 7, 1))
        assert (label.k, label.j, label.l, label.i) == (4, 1, 1, 1)

    def test_l2_three_member(self):
        label = bouquet_label(_join(1, 3, 7, 1))
        assert (label.k, label.j, label.l, label.i) == (4, 1, 3, 3)

    def test_odd_total(self):
        with pytest.raises(OddTotalError):
            bouquet_label(_join(1, 1, 2, 1))


class TestLevelSets:
    def test_full_level_set(self):
        assert bouquet_level_set(4, 1, 1) == {1, 2, 3, 4}

    def test_split_level_set(self):
        # frozen from the enumeration oracle: gcd(3, 2(4-j)) for j = 1..4
        # gives (3, 1, 1, 3), so the level sets are {2, 3} and {1, 4}
        assert bouquet_level_set(4, 3, 1) == {2, 3}
        assert bouquet_level_set(4, 3, 3) == {1, 4}

    def test_empty_level_set(self):
        assert bouquet_level_set(1, 1, 2) == set()

    @given(join_strategy())
    @settings(max_examples=120)
    def test_partition_covers_1_to_k(self, join):
        total = join.l1 * (join.w1 + join.w2)
        if total % 2:
            return
        k = total // 2
        partition = bouquet_partition(k, join.l2)
        pieces = list(partition.values())
        assert sum(len(p) for p in pieces) == k
        assert set().union(*pieces) == set(range(1, k + 1))

    # the level sets list every j in 1..k, so a k past 10**6 is refused before any is built
    @pytest.mark.parametrize("k", [10**6 + 1, 2**53 + 1, 10**400])
    def test_level_sets_refuse_a_k_too_large_to_list(self, k):
        with pytest.raises(InvalidParameterError, match="k must be an int <= 1000000"):
            bouquet_partition(k, 1)
        with pytest.raises(InvalidParameterError, match="k must be an int <= 1000000"):
            bouquet_level_set(k, 1, 1)


class TestBInvariant:
    @pytest.mark.parametrize("l1,w1,w2,expected", [(4, 1, 1, 4), (2, 3, 1, 2), (1, 7, 1, 1)])
    def test_values(self, l1, w1, w2, expected):
        assert b_invariant_wcone(_join(l1, 1, w1, w2)) == expected

    def test_not_fano(self):
        with pytest.raises(NotFanoError):
            b_invariant_wcone(_join(1, 1, 12, 1, GENUS2))

    @given(join_strategy())
    @settings(max_examples=150)
    def test_b_plus_m_equals_k_and_j_equals_b(self, join):
        if not join.base.is_fano or join.l1 * (join.w1 + join.w2) % 2:
            return
        label = bouquet_label(join)
        b = b_invariant_wcone(join)
        assert label.j == b
        assert b + join.l1 * (join.w1 - join.w2) // 2 == label.k

    @given(join_strategy())
    @settings(max_examples=150)
    def test_i_equals_quotient_s_at_regular_ray(self, join):
        # i = gcd(l, 2(k-j)) is the quotient integer s of the (1, 1) ray
        from sascone import ReebRay, quotient_data

        if join.l1 * (join.w1 + join.w2) % 2:
            return
        label = bouquet_label(join)
        if (join.w1, join.w2) == (1, 1):
            assert label.i == join.l2
        else:
            assert label.i == quotient_data(join, ReebRay(1, 1)).s
