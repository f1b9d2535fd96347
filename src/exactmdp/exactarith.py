"""Exact linear solves: fraction-free (Bareiss) elimination on integers.

This is the one piece of exact arithmetic the pointwise path runs: ``bellman``
solves each policy's value system with ``bareiss_solve``, so ``validate``,
``solve`` and ``turnpike --alpha`` load this module and not the polynomial
layer.  ``solve_linear`` is its front end for rational systems.
``polyarith`` holds everything else (polynomials, gcds, root isolation,
points, rational functions and a rule's value functions) and runs on first
use; its ``poly_det`` and ``_value_solve`` reuse ``_bareiss_forward`` and
``bareiss_solve`` under Kronecker substitution.

Every other name this module defined before ``polyarith`` was split off
(``Polynomial``, ``isolate_roots``, ``point_sign``, ``_value_solve``, ...)
is still read here: ``__getattr__`` serves it from ``polyarith``, running
it then, and caches nothing, so a name wrapped in ``polyarith`` reads the
same here.  Assigning such a name here raises ``AttributeError`` naming
``polyarith``: the code that calls it looks it up there, so a patch set
here would change nothing.
"""

from __future__ import annotations

import math
import sys
import types
from fractions import Fraction
from typing import Sequence

from . import polyarith as _polyarith  # registered, not run: see the package


class SingularMatrixError(ValueError):
    pass


def _bareiss_forward(m: list[list[int]], n: int) -> int:
    """Fraction-free (Bareiss) forward elimination, in place, of an n-row
    integer matrix with n or more columns; columns past the n-th ride
    along.  Each division by the previous pivot is exact by Sylvester's
    identity, and afterwards m[k][k] is the leading principal minor of order
    k+1 of the row-permuted matrix.  Returns the sign of the permutation, or
    0 when the leading n columns are singular."""
    sign = 1
    prev = 1
    for k in range(n):
        if not m[k][k]:
            pivot = next((r for r in range(k + 1, n) if m[r][k]), None)
            if pivot is None:
                return 0
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        row_k = m[k]
        akk = row_k[k]
        for i in range(k + 1, n):
            row_i = m[i]
            aik = row_i[k]
            for j in range(k + 1, len(row_i)):
                row_i[j] = (akk * row_i[j] - aik * row_k[j]) // prev
            row_i[k] = 0
        prev = akk
    return sign


def bareiss_solve(
    a: Sequence[Sequence[int]], b: Sequence[int]
) -> tuple[list[int], int]:
    """Solve a square integer system by fraction-free (Bareiss) elimination.

    Returns (x, d) with d > 0 and a.x == d.b, so x / d is the solution; d is
    |det a|.  ``_bareiss_forward`` leaves det(a) up to sign as the last
    pivot, and back-substitution yields det(a).x, which is integral by
    Cramer's rule.
    """
    n = len(a)
    if any(len(row) != n for row in a) or len(b) != n:
        raise ValueError("matrix/vector shapes do not match")
    m = [list(row) + [bi] for row, bi in zip(a, b)]
    if not _bareiss_forward(m, n):
        raise SingularMatrixError("matrix is singular")
    det = m[n - 1][n - 1] if n else 1
    x = [0] * n
    for i in range(n - 1, -1, -1):
        row = m[i]
        s = det * row[n] - sum(row[j] * x[j] for j in range(i + 1, n))
        x[i], rem = divmod(s, row[i])
        if rem:
            raise ArithmeticError("division was not exact")
    if det < 0:
        return [-v for v in x], -det
    return x, det


def solve_linear(
    a: Sequence[Sequence[Fraction]], b: Sequence[Fraction]
) -> list[Fraction]:
    """Exact solution of a square rational system.

    Each row is scaled by the lcm of its denominators and the integer system
    is solved by ``bareiss_solve``.  The result is verified by
    back-substitution before it is returned.
    """
    n = len(a)
    if any(len(row) != n for row in a) or len(b) != n:
        raise ValueError("matrix/vector shapes do not match")
    rows, rhs = [], []
    for row, bi in zip(a, b):
        row = [Fraction(x) for x in row] + [Fraction(bi)]
        den = math.lcm(*(x.denominator for x in row))
        ints = [x.numerator * (den // x.denominator) for x in row]
        rows.append(ints[:n])
        rhs.append(ints[n])
    nums, det = bareiss_solve(rows, rhs)
    x = [Fraction(v, det) for v in nums]
    for i in range(n):
        residual = sum((a[i][j] * x[j] for j in range(n)), Fraction(0)) - b[i]
        if residual != 0:
            raise AssertionError("linear solve verification failed")
    return x


# -- names served from polyarith --------------------------------------------------


def _forwarded(own: dict, name: str) -> bool:
    """Is name read from ``polyarith``: not a dunder, not one of this
    module's own names, and defined there?"""
    return not name.startswith("__") and name not in own and hasattr(_polyarith, name)


def __getattr__(name: str):
    if _forwarded(globals(), name):
        return getattr(_polyarith, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class _ForwardingModule(types.ModuleType):
    def __setattr__(self, name: str, value) -> None:
        if _forwarded(vars(self), name):
            raise AttributeError(
                f"{name!r} is defined in {_polyarith.__name__!r}; "
                f"set it there, not on {self.__name__!r}"
            )
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _ForwardingModule
