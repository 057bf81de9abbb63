"""Exact arithmetic over prime fields: primality, truncated series, matrices.

All values are immutable and tiny: the moduli in play are small primes,
series live at precision a few multiples of p, and matrices stay below a
dozen rows, so plain Python integers are the right representation.  No
floating point enters anywhere.
"""

from __future__ import annotations

from .errors import InvalidParameters
from .record import Record


def is_prime(n: int) -> bool:
    """Trial-division primality test; adequate for the tiny moduli used here."""
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def require_prime(p) -> None:
    """Raise :class:`InvalidParameters` unless ``p`` is a prime integer."""
    if not isinstance(p, int) or isinstance(p, bool) or not is_prime(p):
        raise InvalidParameters(f"modulus must be a prime integer, got {p!r}")


class TruncSeries(Record):
    """A power series over F_p truncated at a fixed precision.

    ``coeffs[j]`` holds the coefficient of t**j; the length of ``coeffs`` is
    the precision N.  Operations discard every degree >= N, and the
    precision is carried explicitly rather than inferred.
    """

    coeffs: tuple[int, ...]
    modulus: int

    def __init__(self, coeffs, modulus: int) -> None:
        require_prime(modulus)
        if len(coeffs) < 1:
            raise InvalidParameters("series precision must be positive")
        object.__setattr__(self, "coeffs", tuple(int(c) % modulus for c in coeffs))
        object.__setattr__(self, "modulus", modulus)

    @property
    def precision(self) -> int:
        return len(self.coeffs)

    @classmethod
    def zero(cls, modulus: int, precision: int) -> TruncSeries:
        return cls((0,) * precision, modulus)

    def is_zero(self) -> bool:
        return not any(self.coeffs)


class FpMatrix(Record):
    """A dense matrix over F_p, stored as a tuple of row tuples."""

    rows: tuple[tuple[int, ...], ...]
    modulus: int

    def __init__(self, rows, modulus: int) -> None:
        require_prime(modulus)
        if not rows or not rows[0]:
            raise InvalidParameters("matrix dimensions must be positive")
        width = len(rows[0])
        if any(len(row) != width for row in rows):
            raise InvalidParameters("matrix rows must share one length")
        reduced = tuple(tuple(int(x) % modulus for x in row) for row in rows)
        object.__setattr__(self, "rows", reduced)
        object.__setattr__(self, "modulus", modulus)

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0])


def matrix_rank(m: FpMatrix) -> int:
    """Rank over F_p by exact Gaussian elimination."""
    p = m.modulus
    rows = [list(row) for row in m.rows]
    nrows, ncols = m.nrows, m.ncols
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, nrows) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], p - 2, p)
        rows[rank] = [(x * inv) % p for x in rows[rank]]
        for r in range(nrows):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [(x - f * y) % p for x, y in zip(rows[r], rows[rank])]
        rank += 1
        if rank == nrows:
            break
    return rank
