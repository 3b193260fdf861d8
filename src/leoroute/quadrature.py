"""Adaptive Simpson quadrature for smooth 1-D integrands.

Only :func:`~leoroute.analysis.contact_mean` uses it now, at the absolute
tolerance its recorded benchmark reference pins exactly; it goes once that
reference is compared within a tolerance instead.
"""

from __future__ import annotations

from typing import Callable

from .errors import InternalConsistencyError

#: Recursion depth at which a panel's estimate is accepted as it stands.
MAX_DEPTH = 60
#: Integrand evaluations one call may make. The package's integrals take
#: well under 3000; an integrand that needs far more is not smooth at the
#: requested tolerance, and without a budget it could run for hours.
MAX_EVALS = 100_000


def adaptive_simpson(
    f: Callable[[float], float],
    a: float,
    b: float,
    tol: float = 1e-10,
) -> float:
    """Integrate ``f`` over [a, b] to absolute tolerance ``tol``.

    Classic recursive adaptive Simpson with Richardson extrapolation;
    suitable for smooth bounded integrands. A panel refined
    :data:`MAX_DEPTH` times returns its current estimate, so an isolated
    jump still yields an answer.

    Args:
        f: Scalar integrand.
        a: Lower bound.
        b: Upper bound (may be below ``a``; the sign flips accordingly).
        tol: Absolute error tolerance.

    Returns:
        The integral estimate.

    Raises:
        InternalConsistencyError: If the tolerance is not met within
            :data:`MAX_EVALS` integrand evaluations.
    """
    if a == b:
        return 0.0
    evals = 0

    def counted(x: float) -> float:
        nonlocal evals
        evals += 1
        if evals > MAX_EVALS:
            raise InternalConsistencyError(
                f"adaptive Simpson exceeded {MAX_EVALS} integrand evaluations "
                f"on [{a}, {b}] at tolerance {tol}"
            )
        return f(x)

    fa, fb = counted(a), counted(b)
    m, fm, whole = _simpson_step(counted, a, fa, b, fb)
    return _recurse(counted, a, fa, b, fb, tol, whole, m, fm, MAX_DEPTH)


def _simpson_step(f, a, fa, b, fb):
    m = 0.5 * (a + b)
    fm = f(m)
    return m, fm, (b - a) / 6.0 * (fa + 4.0 * fm + fb)


def _recurse(f, a, fa, b, fb, tol, whole, m, fm, depth):
    lm, flm, left = _simpson_step(f, a, fa, m, fm)
    rm, frm, right = _simpson_step(f, m, fm, b, fb)
    delta = left + right - whole
    if depth <= 0 or abs(delta) <= 15.0 * tol:
        return left + right + delta / 15.0
    half = 0.5 * tol
    return _recurse(f, a, fa, m, fm, half, left, lm, flm, depth - 1) + _recurse(
        f, m, fm, b, fb, half, right, rm, frm, depth - 1
    )
