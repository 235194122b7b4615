"""Truncated Leibniz/chain series of the RL derivative and the generalized
binomial they weight their terms by.

No command, acceptance criterion or library function uses them, so they
live beside the tests: ``test_fracops.py`` checks the series against the
library operators and ``test_specfun.py`` checks ``gen_binomial``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from fracriccati import fracops as fo
from fracriccati.specfun import _is_nonpositive_integer, gamma, recip_gamma


class IndeterminateFormError(ValueError):
    """Generalized binomial with coinciding numerator/denominator poles."""


def gen_binomial(beta: float, k: int) -> float:
    """Generalized binomial coefficient Gamma(1+beta) / (k! Gamma(1-k+beta)).

    When Gamma in the denominator has a pole and the numerator is finite the
    limiting value 0 is returned.  Coinciding numerator/denominator poles
    (beta a negative integer) raise IndeterminateFormError.
    """
    if k != int(k) or k < 0:
        raise ValueError(f"gen_binomial: k must be a non-negative integer, got {k}")
    k = int(k)
    beta = float(beta)
    if _is_nonpositive_integer(1.0 + beta):
        # then 1 - k + beta is a non-positive integer too: 0/0 form
        raise IndeterminateFormError(
            f"gen_binomial({beta}, {k}): numerator and denominator poles coincide"
        )
    if _is_nonpositive_integer(1.0 - k + beta):
        return 0.0
    return gamma(1.0 + beta) * recip_gamma(1.0 - k + beta) / float(math.factorial(k))


@dataclass(frozen=True)
class SeriesSpec:
    """Truncation order for the Leibniz/chain series."""

    terms: int = 12

    def __post_init__(self):
        if self.terms < 0:
            raise ValueError(f"series truncation must be >= 0, got {self.terms}")


@dataclass(frozen=True)
class SeriesResult:
    """Partial sum of a truncated operator series plus its convergence indicator."""

    value: float
    last_term: float


def _frac_deriv_or_integral(g, order: float, x: float, q: fo.QuadratureSpec) -> float:
    """D^order g at x: derivative for order > 0, identity at 0, integral below."""
    if order > 0.0:
        return fo.rl_derivative(g, order, x, q)
    if order == 0.0:
        return g(x)
    return fo.rl_integral(g, -order, x, q)


def _truncated_series(name: str, s: SeriesSpec, term_of) -> SeriesResult:
    """sum_{k <= s.terms} term_of(k), where term_of(k) is None for a term that
    vanishes; warns when the final term fails to decay."""
    total = 0.0
    prev_mag = None
    last = 0.0
    for k in range(s.terms + 1):
        term = term_of(k)
        if term is None:
            last = 0.0
            prev_mag = 0.0
            continue
        total += term
        last = abs(term)
        if prev_mag is not None and prev_mag > 0.0 and last > prev_mag and k == s.terms:
            warnings.warn(
                f"{name}: terms not decaying at truncation (|T_{k}|={last:.3e} "
                f"> |T_{k-1}|={prev_mag:.3e})",
                stacklevel=3,
            )
        prev_mag = last
    return SeriesResult(total, last)


def frac_leibniz(
    f,
    g,
    beta: float,
    x: float,
    s: SeriesSpec = SeriesSpec(),
    q: fo.QuadratureSpec = fo.QuadratureSpec(),
) -> SeriesResult:
    """Truncated product rule: sum_k binom(beta, k) f^(k)(x) D^(beta-k) g(x).

    Requires ordinary derivatives of f up to the truncation order; warns when
    the final term fails to decay.
    """
    f = fo._as_real_function(f)
    g = fo._as_real_function(g)
    beta = float(beta)
    x = float(x)

    def term(k: int) -> float | None:
        w = gen_binomial(beta, k)
        if w == 0.0:
            return None
        fk = f.derivative(k)(x) if k else f(x)
        if fk == 0.0:
            return None
        return w * fk * _frac_deriv_or_integral(g, beta - k, x, q)

    return _truncated_series("frac_leibniz", s, term)


def frac_chain(
    h,
    beta: float,
    x: float,
    s: SeriesSpec = SeriesSpec(),
) -> SeriesResult:
    """Truncated composite rule: sum_k binom(beta, k) x^(k-beta)/Gamma(1+k-beta)
    h^(k)(x), where the x-power factor is D^(beta-k) applied to 1."""
    h = fo._as_real_function(h)
    beta = float(beta)
    x = float(x)
    if not x > 0.0:
        raise ValueError(f"frac_chain requires x > 0, got {x}")

    def term(k: int) -> float | None:
        w = gen_binomial(beta, k)
        rg = recip_gamma(1.0 + k - beta)
        if w == 0.0 or rg == 0.0:
            return None
        hk = h.derivative(k)(x) if k else h(x)
        return w * x ** (k - beta) * rg * hk

    return _truncated_series("frac_chain", s, term)
