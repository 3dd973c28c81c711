"""The differential matrix of ``tests/differential.py``: every cell
against the reference, every toggle row pinned to its base, and every
row's mechanism engaged.  One test per row and column group."""

import pytest

from tests.differential import ROWS, check, columns_of, group, tally


@pytest.mark.parametrize("row,group_", [(row, g) for row in ROWS for g in ROWS[row].groups])
def test_cells(row, group_):
    check(row, *[column for column in columns_of(row) if group(column) == group_])


@pytest.mark.parametrize("row", [row for row in ROWS if ROWS[row].guard])
def test_row_engaged(row):
    side, key, minimum = ROWS[row].guard
    assert tally(row, key, side=side) >= minimum
