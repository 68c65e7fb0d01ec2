"""Rank by exact Gaussian elimination over Q(zeta_N): the test oracle for
``etarho.exactlinalg.exact_rank``."""

from math import lcm

from etarho.cyclotomic import CyclotomicValue


def _lift_matrix(rows):
    order = 1
    lifted = []
    for row in rows:
        conv = [v if isinstance(v, CyclotomicValue) else CyclotomicValue.from_rational(v)
                for v in row]
        lifted.append(conv)
        for v in conv:
            order = lcm(order, v.order)
    return [[v.lift(order) for v in row] for row in lifted]


def _echelon_rank(rows) -> int:
    """Rank by exact Gaussian elimination over Q(zeta_N)."""
    rows = [list(r) for r in rows]
    if not rows or not rows[0]:
        return 0
    mat = _lift_matrix(rows)
    n_rows, n_cols = len(mat), len(mat[0])
    pivot_row = 0
    for col in range(n_cols):
        pivot = next((r for r in range(pivot_row, n_rows) if not mat[r][col].is_zero()), None)
        if pivot is None:
            continue
        mat[pivot_row], mat[pivot] = mat[pivot], mat[pivot_row]
        # entries left of col are zero in every row from pivot_row down
        inv = mat[pivot_row][col].inverse()
        head = [v * inv for v in mat[pivot_row][col:]]
        for r in range(pivot_row + 1, n_rows):
            factor = mat[r][col]
            if not factor.is_zero():
                mat[r][col:] = [a - factor * b for a, b in zip(mat[r][col:], head)]
        pivot_row += 1
    return pivot_row
