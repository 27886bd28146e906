"""Unit tests for repro.core.matrices (M/K/L derivation vs paper Table 5)."""

import numpy as np

from repro import engine
from repro.core.adders import PAPER_LPAAS
from repro.core.matrices import (
    TABLE5_MATRICES,
    clear_memos,
    derive_carry_matrices,
    derive_matrices,
    derive_sum_matrix,
    selected_rows,
)
from repro.core.truth_table import ACCURATE


class TestTable5Golden:
    """The derived masks must equal the paper's Table 5 exactly."""

    def test_all_seven_cells_match_table5(self, lpaa_cell):
        derived = derive_matrices(lpaa_cell)
        golden = TABLE5_MATRICES[lpaa_cell.name]
        assert derived.m == golden.m
        assert derived.k == golden.k
        assert derived.l == golden.l

    def test_table5_covers_exactly_the_seven_cells(self):
        assert sorted(TABLE5_MATRICES) == [f"LPAA {i}" for i in range(1, 8)]


class TestMaskIdentities:
    def test_l_is_elementwise_or_of_m_and_k(self, any_cell):
        mkl = derive_matrices(any_cell)
        assert mkl.l == tuple(m | k for m, k in zip(mkl.m, mkl.k))

    def test_m_and_k_are_disjoint(self, any_cell):
        mkl = derive_matrices(any_cell)
        assert all(m & k == 0 for m, k in zip(mkl.m, mkl.k))

    def test_success_rows_equal_eight_minus_error_cases(self, any_cell):
        mkl = derive_matrices(any_cell)
        assert mkl.success_row_count() == 8 - any_cell.num_error_cases()

    def test_accurate_adder_masks_are_full(self):
        mkl = derive_matrices(ACCURATE)
        assert mkl.l == (1,) * 8
        assert mkl.m == (0, 0, 0, 1, 0, 1, 1, 1)  # majority function
        assert mkl.k == (1, 1, 1, 0, 1, 0, 0, 0)

    def test_as_arrays_returns_float_vectors(self):
        m, k, l = derive_matrices(ACCURATE).as_arrays()
        for arr in (m, k, l):
            assert arr.dtype == np.float64
            assert arr.shape == (8,)
        assert np.array_equal(m + k, l)


class TestAuxiliaryMasks:
    def test_carry_masks_partition_all_rows(self, any_cell):
        c1, c0 = derive_carry_matrices(any_cell)
        assert tuple(a + b for a, b in zip(c1, c0)) == (1,) * 8
        assert c1 == tuple(cout for _, cout in any_cell.rows)

    def test_sum_mask_matches_rows(self, any_cell):
        s1 = derive_sum_matrix(any_cell)
        assert s1 == tuple(s for s, _ in any_cell.rows)

    def test_unconditioned_masks_dominate_success_masks(self, any_cell):
        # M (success & carry=1) can never exceed the raw carry mask, etc.
        mkl = derive_matrices(any_cell)
        c1, c0 = derive_carry_matrices(any_cell)
        assert all(m <= c for m, c in zip(mkl.m, c1))
        assert all(k <= c for k, c in zip(mkl.k, c0))


class TestFingerprintMemos:
    """The mask memos are keyed on the truth-table rows, and
    ``engine.clear_cache`` empties them."""

    def test_memoised_per_table(self, any_cell):
        assert derive_matrices(any_cell) is derive_matrices(any_cell)
        assert selected_rows(any_cell) is selected_rows(any_cell)
        mkl = derive_matrices(any_cell)
        for mask, rows in zip((mkl.m, mkl.k, mkl.l), selected_rows(any_cell)):
            assert rows == tuple(j for j in range(8) if mask[j])

    def test_equal_rows_share_entries_across_table_objects(self):
        # The key is the truth-table fingerprint, not object identity.
        clone = type(ACCURATE)(ACCURATE.rows, name="clone-of-accurate")
        assert derive_matrices(clone) is derive_matrices(ACCURATE)
        assert selected_rows(clone) is selected_rows(ACCURATE)
        assert derive_carry_matrices(clone) is derive_carry_matrices(ACCURATE)

    def test_clear_cache_empties_the_memos(self):
        assert engine.clear_cache is clear_memos
        table = PAPER_LPAAS[3]
        before = (derive_matrices(table), selected_rows(table),
                  derive_carry_matrices(table))
        engine.clear_cache()
        after = (derive_matrices(table), selected_rows(table),
                 derive_carry_matrices(table))
        assert after == before
        assert all(a is not b for a, b in zip(after, before))
