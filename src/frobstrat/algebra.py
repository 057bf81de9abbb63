"""Exact values over prime fields: primality, matrices and their rank.

All values are immutable and small: the moduli in play are small primes,
and a colength matrix stacks p(p - l) rows of p entries, images in
k[t]/(t^p) (20 rows at p = 5, 42 at p = 7), so plain Python integers are
the right representation.  No floating point enters anywhere, and
entries must be integers: a float or a fraction is refused rather than
truncated.  :func:`require_prime` returns the prime it verified as an
exact int and remembers the last one, so a repeated check costs one
comparison.  :func:`matrix_rank` remembers the rows, modulus and echelon
of the last matrix it ranked, one rows tuple and at most p echelon rows
for a colength matrix, so a matrix over the same modulus that ends with
exactly those rows inserts only its leading ones; the colength matrices
of one profile nest that way.  A zero row skips the reduction and a row
that reduces to zero the search for its lead.
:data:`WORK_BUDGET` is the one bound on how many items a public call may
build; the calls whose work grows with p refuse before building anything
when they would exceed it.
"""

from __future__ import annotations

from operator import index

from .errors import InvalidParameters
from .record import Record


#: Largest integer :func:`is_prime` tests: trial division up to its square
#: root takes about 0.15 s, and the time grows with the square root of n.
PRIME_BOUND = 10**12


def is_prime(n: int) -> bool:
    """Trial-division primality test; adequate for the tiny moduli used here.

    Refuses a non-integer ``n``, and ``n`` above :data:`PRIME_BOUND`, with
    :class:`InvalidParameters` rather than answer or run for hours.
    """
    n = _checked_int(n)
    if n < 2:
        return False
    if n > PRIME_BOUND:
        raise InvalidParameters(
            f"primality is tested only up to {PRIME_BOUND}, got {n}"
        )
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


#: Most items one call may build or visit.  Each call whose work grows
#: with its input names its count in its docstring and refuses before
#: the work when the count exceeds this; the README lists every gate.
WORK_BUDGET = 10**6


def _over_budget(what: str, count, items: str) -> InvalidParameters:
    """The error for a call that would build ``count`` ``items``, more than
    :data:`WORK_BUDGET`; ``what`` names the call and its verb."""
    return InvalidParameters(
        f"{what} {count} {items}, over the work budget of {WORK_BUDGET} {items}"
    )


def _word_charge(count: int, largest: int) -> int:
    """``count`` items, each counted once per signed 64-bit word that the
    int ``largest`` takes: a gate bounds the digits of its input too."""
    return count * (abs(largest).bit_length() // 64 + 1)


#: The last exact int :func:`require_prime` verified; one computation
#: checks its own prime many times in a row.
_last_prime: int | None = None


def require_prime(p) -> int:
    """``p`` as an exact int, ``int(p)`` for an int subclass; raises
    :class:`InvalidParameters` unless ``p`` is a prime integer, and for a
    bool.  The last exact int that passed is remembered and answered by
    one comparison; other values are tested in full."""
    global _last_prime
    if type(p) is int and p == _last_prime:
        return p
    if not isinstance(p, int) or isinstance(p, bool) or not is_prime(p):
        raise InvalidParameters(f"modulus must be a prime integer, got {p!r}")
    if type(p) is int:
        _last_prime = p
    return int(p)


def _checked_int(value, name: str = "", least: int | None = None) -> int:
    """``value`` as an int through :func:`operator.index`, refused with
    :class:`InvalidParameters` when it is not an integer or, if ``least``
    is given, when it lies below ``least``."""
    try:
        value = index(value)
    except TypeError:
        raise _not_integral((value,)) from None
    if least is not None and value < least:
        raise InvalidParameters(f"{name} must be at least {least}, got {value}")
    return value


def _not_integral(values) -> InvalidParameters:
    """The error for ``values`` when one of them is not an integer; raised
    in place of the :class:`TypeError` of :func:`operator.index`."""
    return InvalidParameters(f"entries must be integers, got {values!r}")


def _reduce(values, p: int) -> tuple[int, ...]:
    """``values`` reduced into [0, p); a float or a fraction is refused, not
    truncated."""
    try:
        return tuple(index(v) % p for v in values)
    except TypeError:
        raise _not_integral(values) from None


class FpMatrix(Record):
    """A dense matrix over F_p: any iterable of integer rows, stored reduced,
    and the modulus, stored as the exact int it equals."""

    rows: tuple[tuple[int, ...], ...]
    modulus: int

    def __post_init__(self) -> None:
        p, rows = require_prime(self.modulus), self.rows
        try:
            rows = tuple(_reduce(row, p) for row in rows)
        except TypeError:
            raise InvalidParameters(f"rows must be iterable, got {rows!r}") from None
        if not rows or not rows[0]:
            raise InvalidParameters("matrix dimensions must be positive")
        if set(map(len, rows)) != {len(rows[0])}:
            raise InvalidParameters("matrix rows must share one length")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "modulus", p)

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0])


#: (rows, modulus, echelon) of the last matrix :func:`matrix_rank` ranked:
#: one rows tuple and, as an immutable tuple, at most ``ncols`` echelon rows.
_last_rank: tuple = ((), None, ())


def matrix_rank(m: FpMatrix) -> int:
    """Rank over F_p: the number of rows of a row echelon form.

    Rows join the echelon one at a time, each reduced first against the
    rows already there in increasing pivot column; a row that survives
    adds its leading column as a new pivot.  An all-zero row skips the
    reduction and a row that reduces to zero skips the search for its
    lead, each after one ``any``.  Pivot rows are never normalised and
    nothing above a pivot is cleared, and the scan stops once every
    column holds a pivot.

    The rows, modulus and echelon of the last matrix ranked are
    remembered: one rows tuple and at most ``ncols`` echelon rows (p for a
    colength matrix).  When a matrix over the same modulus ends with
    exactly those rows (tuple equality on the suffix), its rank starts
    from a copy of the stored echelon and inserts only the leading rows,
    and a stored echelon that is already full answers the width at once.
    Any other matrix starts from an empty echelon.  The memo is compared
    by value, so every caller gets the exact rank; a colength profile
    ranks its levels top-down to meet it (see
    :func:`~frobstrat.local_frobenius.colength_profile`).
    """
    global _last_rank
    p, width, rows = m.modulus, m.ncols, m.rows
    last_rows, last_p, last_echelon = _last_rank
    cut = len(rows) - len(last_rows)
    if p == last_p and cut >= 0 and rows[cut:] == last_rows:
        echelon, rows = list(last_echelon), rows[:cut]
    else:
        echelon = []  # (column, 1/pivot, row)
    for row in rows:
        if len(echelon) == width:
            break
        if not any(row):
            continue
        for col, inv, pivot_row in echelon:
            if f := row[col]:
                f *= inv
                row = [(x - f * y) % p for x, y in zip(row, pivot_row)]
        if not any(row):
            continue
        for lead, x in enumerate(row):
            if x:
                echelon.append((lead, pow(x, p - 2, p), row))
                echelon.sort()
                break
    _last_rank = (m.rows, p, tuple(echelon))
    return len(echelon)
