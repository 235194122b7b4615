"""Self-contained special functions: gamma, generalized binomial, and Bessel
functions of arbitrary real order.

Everything here is pure.  The kernels are scalar float-in/float-out;
``bessel`` also takes ndarray orders and arguments and then runs the array
path, which repeats the scalar kernels' floating-point operations element by
element and so returns the same bits.  Bessel evaluation is
split by argument size: ascending power series for small x, Hankel-type
asymptotic expansions (truncated at the smallest term) for large x.  Y of
non-integer order goes through the reflection formula; exact integer orders
use the limiting log-series instead (no epsilon-offset tricks).  K below
x = 20 has two kernels: trapezoidal quadrature of its cosh-kernel integral
representation, which converges for every order and has no sin(pi*nu)
divisor, and, for x < 2 and orders at least 1/4 from an integer, the faster
reflection formula through I; from x = 20 on the asymptotic series is good
to ~e^(-2x).
``bessel_scaled`` returns I and K past their series/quadrature ranges with the
exponential factor split off, so ratios over the order need no exp(+-x).

Accuracy target: >= 10 significant digits for 0 < x <= 100, |nu| <= 10.
Known caveat: Y of non-integer nu near an integer can be wrong in every
digit (the reflection formula divides by sin(pi*nu)); exact integers are
fine.  Against scipy: bessel_y(3.0000000000000004, 11.0) is -61.12 (scipy
-0.09148), bessel_y(7.000000000000001, 11.5) is 6.297 (scipy 0.2491), and
bessel_y(1e-15, 5.0) is -0.32689 (scipy -0.30852).  The Riccati orders stay
at least 1/3 from an integer, so no table is affected.
"""

from __future__ import annotations

import math
import operator
import sys
from itertools import repeat

import numpy as np

from .errors import GammaPoleError, IndeterminateFormError

__all__ = [
    "gamma",
    "recip_gamma",
    "gen_binomial",
    "bessel",
    "bessel_j",
    "bessel_y",
    "bessel_i",
    "bessel_k",
    "bessel_scaled",
    "bessel_derivative",
    "power",
    "BESSEL_KINDS",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_EULER_GAMMA = 0.5772156649015328606065120900824024

# Lanczos coefficients, g = 7, 9 terms.
_LANCZOS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def _is_nonpositive_integer(x: float) -> bool:
    return x <= 0.0 and x == math.floor(x)


def _sinpi(x: float) -> float:
    """sin(pi*x) with the argument reduced exactly modulo 2 first."""
    r = math.fmod(x, 2.0)
    if r > 1.0:
        r -= 2.0
    elif r <= -1.0:
        r += 2.0
    if r > 0.5:
        r = 1.0 - r
    elif r < -0.5:
        r = -1.0 - r
    return math.sin(math.pi * r)


def _cospi(x: float) -> float:
    """cos(pi*x), same reduction idea as _sinpi."""
    r = math.fmod(abs(x), 2.0)
    if r >= 1.0:
        r = 2.0 - r
    sign = 1.0
    if r > 0.5:
        r = 1.0 - r
        sign = -1.0
    return sign * math.cos(math.pi * r)


def gamma(x: float) -> float:
    """Gamma function for real x, Lanczos approximation.

    Reflection is used for x < 1/2. Raises GammaPoleError at the poles
    x = 0, -1, -2, ...
    """
    x = float(x)
    if math.isnan(x) or math.isinf(x):
        raise ValueError(f"gamma: argument must be finite, got {x}")
    if _is_nonpositive_integer(x):
        raise GammaPoleError(f"gamma pole at x = {x}")
    if x < 0.5:
        # Gamma(x) Gamma(1-x) = pi / sin(pi x)
        return math.pi / (_sinpi(x) * gamma(1.0 - x))
    z = x - 1.0
    acc = _LANCZOS[0]
    for i in range(1, len(_LANCZOS)):
        acc += _LANCZOS[i] / (z + i)
    t = z + 7.5
    # split the power to keep each factor's exponent moderate
    base = t ** (0.5 * z + 0.25)
    return _SQRT_2PI * acc * base * math.exp(-t) * base


def recip_gamma(x: float) -> float:
    """1/Gamma(x); returns 0.0 at the poles of Gamma (the natural limit)."""
    if _is_nonpositive_integer(x):
        return 0.0
    return 1.0 / gamma(x)


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


def _digamma_int(m: int) -> float:
    """psi(m) for integer m >= 1."""
    acc = -_EULER_GAMMA
    for j in range(1, m):
        acc += 1.0 / j
    return acc


# ---------------------------------------------------------------------------
# Bessel functions
# ---------------------------------------------------------------------------

BESSEL_KINDS = ("J", "Y", "I", "K")

_SERIES_MAX_TERMS = 500
# I takes its ascending series up to here and the asymptotic expansion past it
_I_SERIES_MAX = 30.0
# K takes its asymptotic expansion from here on, quadrature from 2 up to it
_K_ASYMPTOTIC_MIN = 20.0
# below x = 2, K of an order at least this far from an integer takes the
# reflection formula (1/|sin(pi nu)| <= sqrt 2), the other orders the quadrature
_K_REFLECT_MIN_GAP = 0.25
# the largest argument whose cosh is a finite float
_COSH_MAX = math.log(sys.float_info.max) + math.log(2.0)
# J/Y switch from the ascending series to the Hankel expansion here.  The
# 1.6|nu| scaling balances series cancellation against the asymptotic
# smallest-term floor for orders up to ~10.
def _jy_cutover(nu):
    if isinstance(nu, np.ndarray):
        return np.maximum(12.0, 1.6 * np.abs(nu))
    return max(12.0, 1.6 * abs(nu))


def _check_x(x: float) -> float:
    x = float(x)
    if not (x > 0.0) or math.isinf(x):
        raise ValueError(f"Bessel argument must satisfy 0 < x < inf, got {x}")
    return x


def _series(nu: float, x: float, sign: float) -> float:
    """sum_k sign^k (x/2)^(nu+2k) / (k! Gamma(nu+k+1)): the ascending series
    of J (sign -1) or I (sign +1); nu not a negative integer."""
    half = 0.5 * x
    term = half**nu * recip_gamma(nu + 1.0)
    total = term
    peak = abs(term)
    q = sign * half * half
    for k in range(1, _SERIES_MAX_TERMS):
        term *= q / (k * (k + nu))
        total += term
        mag = abs(term)
        if mag > peak:
            peak = mag
        elif k > 2 and mag <= 1e-17 * peak:
            break
    return total


def _asymptotic_terms(nu: float, x: float) -> list[float]:
    """[a_1(nu)/x, a_2(nu)/x^2, ...]: the terms k >= 1 of the large-argument
    expansions of J, Y, I and K (DLMF 10.17.1, 10.40.1-2), truncated at the
    smallest term.

    For large orders the terms grow before they decay, so divergence is only
    declared once a term grows after the decaying phase has started.
    """
    mu = 4.0 * nu * nu
    terms = []
    term = 1.0  # a_0
    prev = 1.0
    decaying = False
    for k in range(1, 200):
        term *= (mu - (2.0 * k - 1.0) ** 2) / (8.0 * k * x)
        mag = abs(term)
        if mag < prev:
            decaying = True
        elif decaying:  # smallest term passed; stop before divergence
            break
        terms.append(term)
        if mag < 1e-18:
            break
        prev = mag
    return terms


def _hankel_pq(nu: float, x: float) -> tuple[float, float]:
    """P, Q of the large-argument expansion of J and Y.  An ndarray x
    truncates each element at its own smallest term."""
    if isinstance(x, np.ndarray):
        p_arr = np.ones_like(x)
        q_arr = np.zeros_like(x)
        for k, term, live in _asymptotic_terms_array(nu, x):
            acc = q_arr if k % 2 == 1 else p_arr
            np.add(acc, term if (k // 2) % 2 == 0 else -term, out=acc, where=live)
        return p_arr, q_arr
    terms = _asymptotic_terms(nu, x)
    # Q sums the odd k with signs + - + ..., P the even k with signs - + - ...
    q_sum, negate = 0.0, False
    for term in terms[0::2]:
        q_sum += -term if negate else term
        negate = not negate
    p_sum, negate = 1.0, True
    for term in terms[1::2]:
        p_sum += -term if negate else term
        negate = not negate
    return p_sum, q_sum


def _i_asymptotic(nu, x):
    """e^-x I_nu(x) for x > _I_SERIES_MAX from the large-argument expansion:
    the series of the growing exponential plus the reflected, exponentially
    small correction (exact for half-integer orders); no upper limit on x."""
    if isinstance(x, np.ndarray):
        s_alt = np.ones_like(x)
        s_pos = np.ones_like(x)
        for k, term, live in _asymptotic_terms_array(nu, x):
            np.add(s_alt, -term if k % 2 else term, out=s_alt, where=live)
            np.add(s_pos, term, out=s_pos, where=live)
        amp, sin = 1.0 / np.sqrt(2.0 * math.pi * x), _per_value(_sinpi, nu)
        return amp * (s_alt - sin * _each(math.exp, -2.0 * x) * s_pos)
    s_alt = s_pos = 1.0
    for k, term in enumerate(_asymptotic_terms(nu, x), 1):
        s_alt += -term if k % 2 else term
        s_pos += term
    amp = 1.0 / math.sqrt(2.0 * math.pi * x)
    return amp * (s_alt - _sinpi(nu) * math.exp(-2.0 * x) * s_pos)


def _k_scaled(nu, x):
    """e^x K_nu(x) = sqrt(pi/(2x)) sum_k a_k(nu)/x^k for x >= _K_ASYMPTOTIC_MIN,
    where the smallest term is ~e^(-2x) < 5e-18; even in nu, as K is."""
    if isinstance(x, np.ndarray):
        s_pos = np.ones_like(x)
        for _, term, live in _asymptotic_terms_array(nu, x):
            np.add(s_pos, term, out=s_pos, where=live)
        return np.sqrt(math.pi / (2.0 * x)) * s_pos
    s_pos = 1.0
    for term in _asymptotic_terms(nu, x):
        s_pos += term
    return math.sqrt(math.pi / (2.0 * x)) * s_pos


def _jy_asymptotic(nu: float, x: float) -> tuple[float, float]:
    p, q = _hankel_pq(nu, x)
    omega = x - (0.5 * nu + 0.25) * math.pi
    if isinstance(x, np.ndarray):
        c, s, amp = np.cos(omega), np.sin(omega), np.sqrt(2.0 / (math.pi * x))
    else:
        c, s, amp = math.cos(omega), math.sin(omega), math.sqrt(2.0 / (math.pi * x))
    return amp * (p * c - q * s), amp * (p * s + q * c)


def _bessel_y_series_int(n: int, x: float) -> float:
    """Y_n for integer n >= 0 and small x, by the limiting log-series."""
    half = 0.5 * x
    q = half * half
    lg = math.log(half)
    # finite sum
    finite = 0.0
    if n > 0:
        t = float(math.factorial(n - 1))  # k = 0 term
        finite = t
        for k in range(1, n):
            t *= q / (k * (n - k))
            finite += t
        finite *= half ** (-n)
    # log-free infinite sum with digamma weights
    d = recip_gamma(n + 1.0)  # 1/(0! n!)
    psi_a = _digamma_int(1)
    psi_b = _digamma_int(n + 1)
    term = d * (psi_a + psi_b)
    total = term
    peak = abs(term)
    sign = 1.0
    for k in range(1, _SERIES_MAX_TERMS):
        d *= q / (k * (n + k))
        psi_a += 1.0 / k
        psi_b += 1.0 / (n + k)
        sign = -sign
        term = sign * d * (psi_a + psi_b)
        total += term
        mag = abs(term)
        if mag > peak:
            peak = mag
        elif k > 2 and mag <= 1e-17 * peak:
            break
    jn = _series(float(n), x, -1.0)
    return (2.0 * jn * lg - finite - (half**n) * total) / math.pi


def _x_cosh(x, t: float, less: float = 0.0):
    """x (cosh t - less) for a float t (x may be an ndarray); past cosh's
    overflow, where less is lost beside cosh t, as 2 (x cosh(t/2)) cosh(t/2)."""
    if t <= _COSH_MAX:
        return x * (math.cosh(t) - less)
    c = math.cosh(0.5 * t)
    return 2.0 * (x * c) * c


def _bessel_k_quad(nu: float, x: float) -> float:
    """K_nu by trapezoidal quadrature of int_0^inf exp(-x cosh t) cosh(nu t) dt
    (DLMF 10.32.9), for nu >= 0.

    The rule converges exponentially in the node spacing for every order and
    every x > 0 (Trefethen & Weideman, SIAM Rev. 56, 2014), and nothing in it
    divides by sin(pi nu); bessel_k uses it for every order at 2 <= x < 20
    and for orders within 1/4 of an integer below x = 2.  The node spacing
    shrinks as 1/sqrt(x) past x = 8 and as 1/sqrt(nu) past nu = 10, with
    the width of the integrand's peak.  Tail nodes where cosh(nu t) would
    overflow (tiny x and orders >= 1, where K itself is finite) take
    exp(nu t - x cosh t) / 2 instead; _x_cosh forms x cosh t where cosh t
    overflows (x below about 4e-307).  Nodes are summed divided by 8 (exact)
    so the sum stays in range where K = h * sum does (h >= 1/8 to order 20).
    ndarray nu and x run every element's own nodes side by side.
    """
    if isinstance(x, np.ndarray):
        return _k_quad_array(nu, x)
    h = 0.18 / math.sqrt(max(1.0, x / 8.0, nu / 10.0))
    # truncation point: integrand down by e^-46 relative to the t=0 value
    t_max = 1.0
    while _x_cosh(x, t_max, 1.0) - abs(nu) * t_max < 46.0:
        t_max += 0.5
    n = int(t_max / h) + 1
    acc = 0.0625 * math.exp(-x)
    for j in range(1, n + 1):
        t = j * h
        nu_t = nu * t
        x_cosh = x * math.cosh(t) if t <= _COSH_MAX else _x_cosh(x, t)  # hot path inline
        if nu_t <= _COSH_MAX:
            acc += math.exp(-x_cosh) * math.cosh(nu_t) * 0.125
        else:
            acc += 0.0625 * math.exp(nu_t - x_cosh)
    k = 8.0 * h * acc
    if k == math.inf:
        raise OverflowError(f"bessel_k overflows for x = {x}")
    return k


def bessel_j(nu: float, x: float) -> float:
    """Bessel function of the first kind, real order."""
    x = _check_x(x)
    nu = float(nu)
    if nu < 0.0 and nu == math.floor(nu):
        n = int(-nu)
        val = bessel_j(float(n), x)
        return -val if n % 2 else val
    if x < _jy_cutover(nu):
        return _series(nu, x, -1.0)
    return _jy_asymptotic(nu, x)[0]


def bessel_y(nu: float, x: float) -> float:
    """Bessel function of the second kind, real order."""
    x = _check_x(x)
    nu = float(nu)
    if nu < 0.0 and nu == math.floor(nu):
        n = int(-nu)
        val = bessel_y(float(n), x)
        return -val if n % 2 else val
    if x >= _jy_cutover(nu):
        return _jy_asymptotic(nu, x)[1]
    if nu == math.floor(nu):
        return _bessel_y_series_int(int(nu), x)
    # reflection through J of orders +-nu
    s = _sinpi(nu)
    return (_series(nu, x, -1.0) * _cospi(nu) - _series(-nu, x, -1.0)) / s


def bessel_i(nu: float, x: float) -> float:
    """Modified Bessel function of the first kind, real order."""
    x = _check_x(x)
    nu = float(nu)
    if nu < 0.0 and nu == math.floor(nu):
        return bessel_i(-nu, x)
    if x <= _I_SERIES_MAX:
        return _series(nu, x, 1.0)
    if x > 700.0:
        raise OverflowError(f"bessel_i overflows for x = {x}")
    return math.exp(x) * _i_asymptotic(nu, x)


def bessel_k(nu: float, x: float) -> float:
    """Modified Bessel function of the second kind, real order: the
    asymptotic series from x = 20 on, the quadrature below, except that
    orders at least 1/4 from an integer take the faster reflection formula
    through I below x = 2."""
    x = _check_x(x)
    nu = abs(float(nu))  # K is even in its order
    if x >= _K_ASYMPTOTIC_MIN:
        return math.exp(-x) * _k_scaled(nu, x)
    if x >= 2.0 or abs(nu - round(nu)) < _K_REFLECT_MIN_GAP:
        return _bessel_k_quad(nu, x)
    s = _sinpi(nu)
    return 0.5 * math.pi * (_series(-nu, x, 1.0) - _series(nu, x, 1.0)) / s


# ---------------------------------------------------------------------------
# Array path
# ---------------------------------------------------------------------------
#
# Each array kernel repeats the floating-point operations of its scalar
# kernel in the same order, element by element: a term loop runs until its
# last element meets the scalar stopping rule, and each element stops adding
# terms where the scalar kernel would have stopped.  exp and cosh go through
# ``math`` and pow through Python's float power (``operator.pow``), because
# numpy's versions differ from libm's in the last place for a few percent of
# arguments; numpy's arithmetic, sqrt, sin and cos are used as they are.
# Sub-paths that would not pay to vectorise (Y of integer order below the
# cutover, arrays under _ARRAY_MIN_SIZE elements) loop the scalar kernels.


def _each(func, *args):
    """func over equal-length 1-D arrays element by element (a float argument
    is repeated)."""
    n = next(a.size for a in args if isinstance(a, np.ndarray))
    cols = [a.tolist() if isinstance(a, np.ndarray) else repeat(a) for a in args]
    return np.fromiter(map(func, *cols), float, n)


def _per_value(func, v: np.ndarray) -> np.ndarray:
    """func of every element of v, called once per distinct value."""
    u, inv = np.unique(v, return_inverse=True)
    return np.array([func(t) for t in u.tolist()])[inv]


def power(x, p):
    """x**p; element by element through Python's float power when x or p is
    an ndarray, so every element has the bits (and errors) of x**p."""
    if not isinstance(x, np.ndarray) and not isinstance(p, np.ndarray):
        return x**p
    x, p = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(p, dtype=float))
    return _each(operator.pow, x.ravel(), p.ravel()).reshape(x.shape)


def _series_array(nu: np.ndarray, x: np.ndarray, sign: float) -> np.ndarray:
    """_series per element."""
    half = 0.5 * x
    term = _each(operator.pow, half, nu) * _per_value(recip_gamma, nu + 1.0)
    total = term.copy()
    peak = np.abs(term)
    q = sign * half * half
    live = np.ones(x.size, dtype=bool)
    for k in range(1, _SERIES_MAX_TERMS):
        np.multiply(term, q / (k * (k + nu)), out=term, where=live)
        np.add(total, term, out=total, where=live)
        mag = np.abs(term)
        grow = live & (mag > peak)
        np.copyto(peak, mag, where=grow)
        if k > 2:
            live &= grow | ~(mag <= 1e-17 * peak)
            if not live.any():
                break
    return total


def _asymptotic_terms_array(nu, x: np.ndarray):
    """Yield (k, term, live), term k of _asymptotic_terms per element; live
    marks the elements that still add it."""
    mu = 4.0 * nu * nu
    term = np.ones_like(x)
    prev = np.ones_like(x)
    decaying = np.zeros(x.size, dtype=bool)
    live = np.ones(x.size, dtype=bool)
    for k in range(1, 200):
        np.multiply(term, (mu - (2.0 * k - 1.0) ** 2) / (8.0 * k * x), out=term, where=live)
        mag = np.abs(term)
        smaller = mag < prev
        live &= smaller | ~decaying  # smallest term passed: stop before it
        if not live.any():
            return
        decaying |= smaller
        yield k, term, live
        live &= ~(mag < 1e-18)
        np.copyto(prev, mag, where=live)


def _k_quad_array(nu: np.ndarray, x: np.ndarray) -> np.ndarray:
    """_bessel_k_quad per element: node j of every element whose own node
    count reaches j is added in one step."""
    h = 0.18 / np.sqrt(np.maximum(np.maximum(1.0, x / 8.0), nu / 10.0))
    t_max = np.ones_like(x)
    t = 1.0
    grow = _x_cosh(x, t, 1.0) - np.abs(nu) * t < 46.0
    while grow.any():
        t += 0.5
        t_max[grow] = t
        grow &= _x_cosh(x, t, 1.0) - np.abs(nu) * t < 46.0
    n = (t_max / h).astype(int) + 1
    acc = 0.0625 * _each(math.exp, -x)
    for j in range(1, int(n.max()) + 1):
        a = np.flatnonzero(n >= j)
        t_j = j * h[a]
        nu_t = nu[a] * t_j
        tail = nu_t > _COSH_MAX
        fast = t_j.max() <= _COSH_MAX  # _x_cosh costs a Python call per element
        x_cosh = x[a] * _each(math.cosh, t_j) if fast else _each(_x_cosh, x[a], t_j)
        node = _each(math.exp, -x_cosh) * _each(math.cosh, np.where(tail, 0.0, nu_t)) * 0.125
        if tail.any():
            node[tail] = 0.0625 * _each(math.exp, nu_t[tail] - x_cosh[tail])
        acc[a] += node
    k = 8.0 * h * acc
    if (k == math.inf).any():
        raise OverflowError(f"bessel_k overflows for x = {x[k == math.inf][0]}")
    return k


def _negative_integers(nu: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(nu with negative integers replaced by -nu, mask of the odd ones)."""
    neg = (nu < 0.0) & (nu == np.floor(nu))
    return np.where(neg, -nu, nu), neg & (np.fmod(nu, 2.0) != 0.0)


def _jy_array(kind: str, nu: np.ndarray, x: np.ndarray) -> np.ndarray:
    nu, odd = _negative_integers(nu)
    out = np.empty_like(x)
    asym = x >= _jy_cutover(nu)
    if asym.any():
        out[asym] = _jy_asymptotic(nu[asym], x[asym])[0 if kind == "J" else 1]
    series = ~asym
    if kind == "Y":
        integer = series & (nu == np.floor(nu))
        if integer.any():
            out[integer] = _each(bessel_y, nu[integer], x[integer])
        series &= ~integer
    if series.any():
        v, t = nu[series], x[series]
        if kind == "J":
            out[series] = _series_array(v, t, -1.0)
        else:  # reflection through J of orders +-nu
            out[series] = (
                _series_array(v, t, -1.0) * _per_value(_cospi, v) - _series_array(-v, t, -1.0)
            ) / _per_value(_sinpi, v)
    out[odd] = -out[odd]
    return out


def _i_array(nu: np.ndarray, x: np.ndarray) -> np.ndarray:
    nu = _negative_integers(nu)[0]
    out = np.empty_like(x)
    series = x <= _I_SERIES_MAX
    if series.any():
        out[series] = _series_array(nu[series], x[series], 1.0)
    asym = ~series
    if asym.any():
        if (x > 700.0).any():
            raise OverflowError(f"bessel_i overflows for x = {x[x > 700.0][0]}")
        t = x[asym]
        out[asym] = _each(math.exp, t) * _i_asymptotic(nu[asym], t)
    return out


def _k_array(nu: np.ndarray, x: np.ndarray) -> np.ndarray:
    nu = np.abs(nu)
    out = np.empty_like(x)
    asym = x >= _K_ASYMPTOTIC_MIN
    reflect = (x < 2.0) & (np.abs(nu - np.round(nu)) >= _K_REFLECT_MIN_GAP)
    quad = ~(asym | reflect)
    if asym.any():
        t = x[asym]
        out[asym] = _each(math.exp, -t) * _k_scaled(nu[asym], t)
    if quad.any():
        out[quad] = _bessel_k_quad(nu[quad], x[quad])
    if reflect.any():
        v, t = nu[reflect], x[reflect]
        out[reflect] = (
            0.5 * math.pi * (_series_array(-v, t, 1.0) - _series_array(v, t, 1.0))
        ) / _per_value(_sinpi, v)
    return out


# Below this many elements the array path loops the scalar kernels: a term
# loop step costs about the same for 8 elements as for 128, and a call takes
# about 1 ms of them (timed on a 2-vCPU x86-64 VM, numpy 2.4).
_ARRAY_MIN_SIZE = 128


def _broadcast(nu, x) -> tuple[np.ndarray, np.ndarray]:
    """nu and x as broadcast float ndarrays; x must lie in (0, inf)."""
    nu, x = np.broadcast_arrays(np.asarray(nu, dtype=float), np.asarray(x, dtype=float))
    bad = ~((x > 0.0) & (x < math.inf))
    if bad.any():
        raise ValueError(f"Bessel argument must satisfy 0 < x < inf, got {x[bad][0]}")
    return nu, x


def _bessel_array(kind: str, nu, x) -> np.ndarray:
    nu, x = _broadcast(nu, x)
    shape = x.shape
    nu, x = nu.ravel(), x.ravel()
    with np.errstate(all="ignore"):
        if x.size < _ARRAY_MIN_SIZE:
            out = _each(_BESSEL_FUNCS[kind], nu, x)
        elif kind == "I":
            out = _i_array(nu, x)
        elif kind == "K":
            out = _k_array(nu, x)
        else:
            out = _jy_array(kind, nu, x)
    return out.reshape(shape)


_BESSEL_FUNCS = {"J": bessel_j, "Y": bessel_y, "I": bessel_i, "K": bessel_k}


def bessel(kind: str, nu, x):
    """Dispatch to J, Y, I or K by the one-letter kind.

    Floats take the scalar kernels.  If nu or x is an ndarray the two are
    broadcast and the array path returns an ndarray with the same bits as a
    scalar call per element.
    """
    try:
        func = _BESSEL_FUNCS[kind.upper()]
    except (KeyError, AttributeError):
        raise ValueError(f"unknown Bessel kind {kind!r}, expected one of {BESSEL_KINDS}")
    if isinstance(x, np.ndarray) or isinstance(nu, np.ndarray):
        return _bessel_array(kind.upper(), nu, x)
    return func(nu, x)


def bessel_scaled(kind: str, nu, x):
    """The Bessel function split as B_nu(x) = s * exp(e); returns (s, e).

    e = x for I past its series range (x > 30) and e = -x for K from x = 20
    on, where s = e^-x I or e^x K is summed from the large-argument
    expansion: it neither overflows nor underflows, and I has no upper
    limit on x.  Elsewhere, and for J and Y, e = 0 and s is bessel(kind,
    nu, x) itself.  At one x, e does not depend on the order, so a ratio
    over the order is the ratio of the s values.  Floats and ndarrays as in
    bessel, with the same bits on both paths.
    """
    arrays = isinstance(x, np.ndarray) or isinstance(nu, np.ndarray)
    t = np.asarray(x, dtype=float) if arrays else _check_x(x)
    big = False  # J, Y and unknown kinds, which bessel rejects
    letter = kind.upper() if isinstance(kind, str) else kind
    if letter == "I":
        big, sign, kernel = t > _I_SERIES_MAX, 1.0, _i_asymptotic
    elif letter == "K":
        big, sign, kernel = t >= _K_ASYMPTOTIC_MIN, -1.0, _k_scaled
    if not arrays:
        return (kernel(float(nu), t), sign * t) if big else (bessel(kind, nu, t), 0.0)
    if not np.any(big):
        s = bessel(kind, nu, x)
        return s, np.zeros(s.shape)
    nu, x = _broadcast(nu, x)
    big = np.broadcast_to(big, x.shape)
    s = np.empty(x.shape)
    s[~big] = bessel(kind, nu[~big], x[~big])
    v, t = nu[big], x[big]
    with np.errstate(all="ignore"):
        s[big] = _each(kernel, v, t) if t.size < _ARRAY_MIN_SIZE else kernel(v, t)
    return s, np.where(big, sign * x, 0.0)


def bessel_derivative(kind: str, nu: float, x: float) -> float:
    """d/dx of the chosen Bessel function via its two recurrence forms.

    Both the lower-order form (B' from B_{nu-1}) and the upper-order form
    (B' from B_{nu+1}) are evaluated and their mean returned; the pair is the
    standard consistency check on the order recurrence.
    """
    kind = kind.upper()
    x = _check_x(x)
    nu = float(nu)
    b = bessel(kind, nu, x)
    lo = bessel(kind, nu - 1.0, x)
    hi = bessel(kind, nu + 1.0, x)
    r = nu / x
    if kind in ("J", "Y"):
        d1 = lo - r * b
        d2 = r * b - hi
    elif kind == "I":
        d1 = lo - r * b
        d2 = r * b + hi
    else:  # K
        d1 = -lo - r * b
        d2 = r * b - hi
    return 0.5 * (d1 + d2)
