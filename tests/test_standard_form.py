"""The model carrier checks each column and row as it is added, and a
refused one leaves the model as it was."""

import pytest

from dcflex.standard_form import StandardFormModel


def two_columns():
    m = StandardFormModel("m")
    m.add_variable("x")
    m.add_variable("y", ub=1.0)
    m.add_row("r", [(0, 1.0), (1, 1.0)], "<=", 1.0)
    return m


def test_a_repeated_column_name_is_refused():
    m = two_columns()
    with pytest.raises(ValueError, match=r"^model m: column 'x' is declared twice$"):
        m.add_variable("x", obj=1.0)
    assert m.n_vars == 2 and m.objective == {}


@pytest.mark.parametrize("name, coeffs, cause", [
    ("r", [(0, 2.0)], "row 'r' is added twice"),
    ("s", [(1, 1.0), (-1, 3.0)], "row 's' uses undeclared column -1"),
    ("s", [(2, 1.0), (0, 3.0)], "row 's' uses undeclared column 2")],
    ids=["repeated_name", "column_minus_one", "column_n_vars"])
def test_a_faulty_row_is_refused(name, coeffs, cause):
    m = two_columns()
    with pytest.raises(ValueError, match=rf"^model m: {cause}$"):
        m.add_row(name, coeffs, "<=", 0.0)
    assert [row.name for row in m.rows] == ["r"]
    m.add_row("s", [(1, 1.0)], ">=", 0.0)  # the refused name stays free

