"""Self-contained special functions: gamma and Bessel functions of arbitrary
real order.

Everything here is pure.  ``bessel_scaled`` is the one Bessel entry, J, Y,
I or K by its letter, and returns each value split as s * exp(e); ``bessel``
multiplies it back.  Floats take the scalar kernels (``bessel_j`` and
``bessel_y`` are J's and Y's), ndarrays the array path, which repeats their
floating-point operations element by element and so returns the same bits.
Bessel evaluation is split by argument size: ascending power series for
small x, Hankel-type asymptotic expansions (truncated at the smallest term)
for large x, whose terms one loop, _asymptotic_sums, builds and sums for
all four kinds.  Y of non-integer order goes through the reflection formula;
exact integer orders use the limiting log-series instead (no epsilon-offset
tricks).  K below x = 20 has two kernels: trapezoidal quadrature of its
cosh-kernel integral representation, which converges for every order and has
no sin(pi*nu) divisor, and, for x < 2 and orders at least 1/4 from an
integer, the faster reflection formula through I; from x = 20 on the
asymptotic series is good to ~e^(-2x).  The I and K kernels return e = x past
x = 30 and e = -x from x = 20 on, so ratios over the order need no exp(+-x);
elsewhere e = 0.

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

import numpy as np

from .errors import GammaPoleError

__all__ = [
    "gamma",
    "recip_gamma",
    "bessel",
    "bessel_j",
    "bessel_y",
    "bessel_scaled",
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


def _check(nu: float, x: float) -> tuple[float, float]:
    """(nu, x) as floats; 0 < x < inf and nu finite, else ValueError."""
    x = float(x)
    if not (x > 0.0) or math.isinf(x):
        raise ValueError(f"Bessel argument must satisfy 0 < x < inf, got {x}")
    nu = float(nu)
    if not math.isfinite(nu):
        raise ValueError(f"Bessel order must be finite, got {nu}")
    return nu, x


def _series(nu: float, x: float, sign: float) -> float:
    """sum_k sign^k (x/2)^(nu+2k) / (k! Gamma(nu+k+1)): the ascending series
    of J (sign -1) or I (sign +1); nu not a negative integer.  For nu just
    above -m the terms k < m carry a factor of order nu + m, so the sum
    stops at a term below 1e-17 of the peak only once k > -nu."""
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
        elif k > 2 and mag <= 1e-17 * peak and k > -nu:
            break
    return total


def _asymptotic_sums(kind: str, nu, x):
    """The sums of the terms t_k = a_k(nu)/x^k, k >= 1, of the large-argument
    expansions (DLMF 10.17.1, 10.40.1-2), truncated at the smallest term:
    (P, Q) of J and Y, (1 + sum (-1)^k t_k, 1 + sum t_k) for I and
    (1, 1 + sum t_k) for K.  An ndarray x truncates each element at its own
    smallest term.

    For large orders the terms grow before they decay, so divergence is only
    declared once a term grows after the decaying phase has started.  J and Y
    add term k to Q for odd k and to P for even k, negated when k % 4 >= 2.
    """
    jy, alt = kind in "JY", kind == "I"
    mu = 4.0 * nu * nu
    if isinstance(x, np.ndarray):
        first, second = np.ones_like(x), (np.zeros_like(x) if jy else np.ones_like(x))
        term, prev = np.ones_like(x), np.ones_like(x)
        decaying, live = np.zeros(x.size, dtype=bool), np.ones(x.size, dtype=bool)
        for k in range(1, 200):
            np.multiply(term, (mu - (2.0 * k - 1.0) ** 2) / (8.0 * k * x), out=term, where=live)
            mag = np.abs(term)
            smaller = mag < prev
            live &= smaller | ~decaying  # smallest term passed: stop before it
            if not live.any():
                break
            decaying |= smaller
            if jy:
                acc = second if k % 2 else first
                (np.add if k % 4 < 2 else np.subtract)(acc, term, out=acc, where=live)
            else:
                if alt:
                    (np.subtract if k % 2 else np.add)(first, term, out=first, where=live)
                np.add(second, term, out=second, where=live)
            live &= ~(mag < 1e-18)
            np.copyto(prev, mag, where=live)
        return first, second
    first, second = 1.0, (0.0 if jy else 1.0)
    term = prev = 1.0
    decaying = False
    for k in range(1, 200):
        term *= (mu - (2.0 * k - 1.0) ** 2) / (8.0 * k * x)
        mag = abs(term)
        if mag < prev:
            decaying = True
        elif decaying:  # smallest term passed; stop before divergence
            break
        if jy:
            signed = term if k % 4 < 2 else -term
            if k % 2:
                second += signed
            else:
                first += signed
        else:
            if alt:
                first += -term if k % 2 else term
            second += term
        if mag < 1e-18:
            break
        prev = mag
    return first, second


def _jy_asymptotic(nu: float, x: float) -> tuple[float, float]:
    p, q = _asymptotic_sums("J", nu, x)
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


def _tail_node(a: float) -> float:
    """exp(a) / 16, also where exp(a) alone overflows but the quotient does
    not: there as (exp(a/2) / 16) exp(a/2)."""
    try:
        return 0.0625 * math.exp(a)
    except OverflowError:
        e = math.exp(0.5 * a)
        return 0.0625 * e * e


def _bessel_k_quad(nu: float, x: float) -> float:
    """K_nu by trapezoidal quadrature of int_0^inf exp(-x cosh t) cosh(nu t) dt
    (DLMF 10.32.9), for nu >= 0.

    The rule converges exponentially in the node spacing for every order and
    every x > 0 (Trefethen & Weideman, SIAM Rev. 56, 2014), and nothing in it
    divides by sin(pi nu); K takes it for every order at 2 <= x < 20
    and for orders within 1/4 of an integer below x = 2.  The node spacing
    shrinks as 1/sqrt(x) past x = 8 and as 1/sqrt(nu) past nu = 10, with
    the width of the integrand's peak.  Tail nodes where cosh(nu t) would
    overflow (tiny x and orders >= 1, where K itself is finite) take
    exp(nu t - x cosh t) / 2 instead, through _tail_node where the exp alone
    overflows; _x_cosh forms x cosh t where cosh t overflows (x below about
    4e-307).  Nodes are summed divided by 8 (exact) so the sum stays in
    range where K = h * sum does (h >= 1/8 to order 20).
    ndarray nu and x go to _k_quad_array, which forms the factors of a node
    that several elements share once and keeps each element's own nodes.
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
            acc += _tail_node(nu_t - x_cosh)
    k = 8.0 * h * acc
    if k == math.inf:
        raise OverflowError(f"K overflows for x = {x}")
    return k


def bessel_j(nu: float, x: float) -> float:
    """Bessel function of the first kind, real order."""
    nu, x = _check(nu, x)
    if nu < 0.0 and nu == math.floor(nu):
        n = int(-nu)
        val = bessel_j(float(n), x)
        return -val if n % 2 else val
    if x < _jy_cutover(nu):
        return _series(nu, x, -1.0)
    return _jy_asymptotic(nu, x)[0]


def bessel_y(nu: float, x: float) -> float:
    """Bessel function of the second kind, real order."""
    nu, x = _check(nu, x)
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


def _i_split(nu: float, x: float) -> tuple[float, float]:
    """I_nu(x) = s exp(e) as (s, e): the ascending series with e = 0 up to
    x = 30; past it e = x and e^-x I is the large-argument series of the
    growing exponential plus the reflected, exponentially small correction
    (exact for half-integer orders), with no upper limit on x."""
    nu, x = _check(nu, x)
    if nu < 0.0 and nu == math.floor(nu):
        nu = -nu
    if x <= _I_SERIES_MAX:
        return _series(nu, x, 1.0), 0.0
    s_alt, s_pos = _asymptotic_sums("I", nu, x)
    amp = 1.0 / math.sqrt(2.0 * math.pi * x)
    return amp * (s_alt - _sinpi(nu) * math.exp(-2.0 * x) * s_pos), x


def _k_split(nu: float, x: float) -> tuple[float, float]:
    """K_nu(x) = s exp(e) as (s, e): e^x K = sqrt(pi/(2x)) sum_k a_k(nu)/x^k
    with e = -x from x = 20 on, where the smallest term is ~e^(-2x) < 5e-18;
    below, e = 0 and the quadrature, except that orders at least 1/4 from an
    integer take the faster reflection formula through I below x = 2."""
    nu, x = _check(nu, x)
    nu = abs(nu)  # K is even in its order
    if x >= _K_ASYMPTOTIC_MIN:
        return math.sqrt(math.pi / (2.0 * x)) * _asymptotic_sums("K", nu, x)[1], -x
    if x >= 2.0 or abs(nu - round(nu)) < _K_REFLECT_MIN_GAP:
        return _bessel_k_quad(nu, x), 0.0
    s = _sinpi(nu)
    return 0.5 * math.pi * (_series(-nu, x, 1.0) - _series(nu, x, 1.0)) / s, 0.0


# ---------------------------------------------------------------------------
# Array path
# ---------------------------------------------------------------------------
#
# Each array kernel repeats the floating-point operations of its scalar
# kernel in the same order, element by element: a term loop runs until its
# last element meets the scalar stopping rule, and each element stops adding
# terms where the scalar kernel would have stopped.  _asymptotic_sums keeps
# its ndarray loop beside its float loop; where the float loop adds a
# negated term, the ndarray loop calls np.subtract, which gives the same
# bits without the temporary.  exp and cosh go through
# ``math`` and pow through Python's float power (``operator.pow``), because
# numpy's versions differ from libm's in the last place for a few percent of
# arguments; numpy's arithmetic, sqrt, sin and cos are used as they are.
# A factor that elements share is computed once per distinct argument, as
# the same call on the same float gives the same bits: gamma and sin(pi nu)
# per order, and in the K quadrature cosh t_j per node spacing h,
# exp(-x cosh t_j) per (x, h) and cosh(nu t_j) per (nu, h).  Sub-paths
# that would not pay to vectorise (Y of integer order below the cutover,
# arrays under _ARRAY_MIN_SIZE elements) loop the scalar kernels.


def _each(func, *args):
    """func over equal-length 1-D arrays element by element."""
    return np.fromiter(map(func, *[a.tolist() for a in args]), float, args[0].size)


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
    k_dip = float(-nu.min())  # an order just above -m runs to k > -nu (see _series)
    for k in range(1, _SERIES_MAX_TERMS):
        np.multiply(term, q / (k * (k + nu)), out=term, where=live)
        np.add(total, term, out=total, where=live)
        mag = np.abs(term)
        grow = live & (mag > peak)
        np.copyto(peak, mag, where=grow)
        if k > 2:
            stop = mag <= 1e-17 * peak
            if k <= k_dip:
                stop &= k > -nu
            live &= grow | ~stop
            if not live.any():
                break
    return total


def _classes(key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(index of the first element of each distinct key, class of every
    element), the classes numbered in order of first appearance."""
    _, first, inv = np.unique(key, return_index=True, return_inverse=True)
    rank = np.argsort(first)
    label = np.empty_like(rank)
    label[rank] = np.arange(rank.size)
    return first[rank], label[inv]


def _live_counts(n: np.ndarray) -> list[int]:
    """[number of entries of the descending n that are >= j for j = 1 .. n[0]]"""
    return np.searchsorted(-n, np.arange(-1, -n[0] - 1, -1), side="right").tolist()


def _k_quad_array(nu: np.ndarray, x: np.ndarray) -> np.ndarray:
    """_bessel_k_quad per element.  Node j forms cosh t_j once per distinct
    node spacing h, exp(-x cosh t_j) once per distinct (x, h) and
    cosh(nu t_j) once per distinct (nu, h), then adds its term to every
    element whose own node count reaches j.  Elements and classes run in
    order of descending node count, so the ones that have a node j are a
    prefix of each."""
    h = 0.18 / np.sqrt(np.maximum(np.maximum(1.0, x / 8.0), nu / 10.0))
    t_max = np.ones_like(x)
    t = 1.0
    grow = _x_cosh(x, t, 1.0) - np.abs(nu) * t < 46.0
    while grow.any():
        t += 0.5
        t_max[grow] = t
        grow &= _x_cosh(x, t, 1.0) - np.abs(nu) * t < 46.0
    n = (t_max / h).astype(int) + 1
    order = np.argsort(-n, kind="stable")
    nu_s, x_s, h_s, n_s = nu[order], x[order], h[order], n[order]
    h_first, h_of = _classes(h_s)
    # a pair (v, h) as the complex number v + ih, which np.unique compares as a pair
    x_first, x_of = _classes(x_s + 1j * h_s)
    nu_first, nu_of = _classes(nu_s + 1j * h_s)
    # per class: its x, order or h, and the h-class of each x-class
    h_c, x_c, x_in_h = h_s[h_first], x_s[x_first], h_of[x_first]
    nu_c, nuh_c = nu_s[nu_first], h_s[nu_first]
    h_top, nuh_top = float(h_c.max()), float((nu_c * nuh_c).max())
    minus_x = -x_c
    acc = 0.0625 * _each(math.exp, minus_x)[x_of]
    live = zip(_live_counts(n_s), _live_counts(n_s[h_first]),
               _live_counts(n_s[x_first]), _live_counts(n_s[nu_first]))
    for j, (ke, kh, kx, knu) in enumerate(live, 1):
        # -(x cosh t_j), which is (-x) cosh t_j to the bit
        if j * h_top <= _COSH_MAX:  # so is every t_j; _x_cosh costs a Python call
            e_arg = minus_x[:kx] * _each(math.cosh, j * h_c[:kh])[x_in_h[:kx]]
        else:
            e_arg = _each(_x_cosh, minus_x[:kx], j * h_c[x_in_h[:kx]])
        nu_t = nu_c[:knu] * (j * nuh_c[:knu])
        xe, nue = x_of[:ke], nu_of[:ke]
        # nu (j h) is within a few ulps of j (nu h) <= j nuh_top, so while
        # that stays below _COSH_MAX / 2 no node is a tail node
        tail = nu_t > _COSH_MAX if j * nuh_top > 0.5 * _COSH_MAX else None
        node = (_each(math.exp, e_arg)[xe]
                * _each(math.cosh, nu_t if tail is None else np.where(tail, 0.0, nu_t))[nue]
                * 0.125)
        if tail is not None and tail.any():
            e = np.flatnonzero(tail[nue])
            node[e] = _each(_tail_node, nu_t[nue[e]] + e_arg[xe[e]])
        acc[:ke] += node
    k = np.empty_like(acc)
    k[order] = 8.0 * h_s * acc
    if (k == math.inf).any():
        raise OverflowError(f"K overflows for x = {x[k == math.inf][0]}")
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


def _i_array(nu: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    nu = _negative_integers(nu)[0]
    s = np.empty_like(x)
    series = x <= _I_SERIES_MAX
    if series.any():
        s[series] = _series_array(nu[series], x[series], 1.0)
    asym = ~series
    if asym.any():
        v, t = nu[asym], x[asym]
        s_alt, s_pos = _asymptotic_sums("I", v, t)
        amp = 1.0 / np.sqrt(2.0 * math.pi * t)
        s[asym] = amp * (s_alt - _per_value(_sinpi, v) * _each(math.exp, -2.0 * t) * s_pos)
    return s, np.where(asym, x, 0.0)


def _k_array(nu: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    nu = np.abs(nu)
    s = np.empty_like(x)
    asym = x >= _K_ASYMPTOTIC_MIN
    reflect = (x < 2.0) & (np.abs(nu - np.round(nu)) >= _K_REFLECT_MIN_GAP)
    quad = ~(asym | reflect)
    if asym.any():
        t = x[asym]
        s[asym] = np.sqrt(math.pi / (2.0 * t)) * _asymptotic_sums("K", nu[asym], t)[1]
    if quad.any():
        s[quad] = _bessel_k_quad(nu[quad], x[quad])
    if reflect.any():
        v, t = nu[reflect], x[reflect]
        s[reflect] = (
            0.5 * math.pi * (_series_array(-v, t, 1.0) - _series_array(v, t, 1.0))
        ) / _per_value(_sinpi, v)
    return s, np.where(asym, -x, 0.0)


# Below this many elements the array path loops the scalar kernels: a term
# loop step costs about the same for 8 elements as for 128, and a call takes
# about 1 ms of them (timed on a 2-vCPU x86-64 VM, numpy 2.4).
_ARRAY_MIN_SIZE = 128


def _broadcast(nu, x) -> tuple[np.ndarray, np.ndarray, tuple]:
    """nu and x as flat float ndarrays of their broadcast size, and the
    broadcast shape."""
    nu, x = np.asarray(nu, dtype=float), np.asarray(x, dtype=float)
    shape = np.broadcast(nu, x).shape
    # np.full copies exactly, in a fraction of np.broadcast_arrays' time
    if nu.shape != shape:
        nu = np.full(shape, nu)
    if x.shape != shape:
        x = np.full(shape, x)
    return nu.ravel(), x.ravel(), shape


def bessel_scaled(kind: str, nu, x):
    """The Bessel function of the one-letter kind as (s, e), B_nu(x) = s * exp(e).

    e = x for I past its series range (x > 30) and e = -x for K from x = 20
    on, where s = e^-x I or e^x K is summed from the large-argument
    expansion: it neither overflows nor underflows, and I has no upper
    limit on x.  Elsewhere, and for J and Y, e = 0 and s is the value
    itself.  At one x, e does not depend on the order, so a ratio over the
    order is the ratio of the s values.  Floats take the scalar kernels; if
    nu or x is an ndarray, the two are broadcast and the array path returns
    ndarrays with the same bits as a scalar call per element.
    """
    letter = kind.upper() if isinstance(kind, str) else None
    if letter not in BESSEL_KINDS:
        raise ValueError(f"unknown Bessel kind {kind!r}, expected one of {BESSEL_KINDS}")
    if not (isinstance(x, np.ndarray) or isinstance(nu, np.ndarray)):
        if letter == "I":
            return _i_split(nu, x)
        if letter == "K":
            return _k_split(nu, x)
        return (bessel_j if letter == "J" else bessel_y)(nu, x), 0.0
    nu, x, shape = _broadcast(nu, x)
    if x.size < _ARRAY_MIN_SIZE:  # float kernels: they check each element, set no numpy state
        pairs = [bessel_scaled(letter, v, t) for v, t in zip(nu.tolist(), x.tolist())]
        s, e = np.array(pairs, dtype=float).reshape(-1, 2).T
    else:
        bad = ~((x > 0.0) & (x < math.inf) & np.isfinite(nu))
        if bad.any():  # the first bad element raises the scalar kernels' ValueError
            _check(nu[bad][0], x[bad][0])
        with np.errstate(all="ignore"):
            if letter == "I":
                s, e = _i_array(nu, x)
            elif letter == "K":
                s, e = _k_array(nu, x)
            else:
                s, e = _jy_array(letter, nu, x), np.zeros(x.size)
    return s.reshape(shape), e.reshape(shape)


def bessel(kind: str, nu, x):
    """J, Y, I or K by the one-letter kind: s * exp(e) of bessel_scaled,
    for floats and ndarrays alike.  I raises OverflowError past x = 700."""
    s, e = bessel_scaled(kind, nu, x)
    # only I has e > 0: e = x past its series range
    if not isinstance(e, np.ndarray):
        if e > 700.0:
            raise OverflowError(f"I overflows for x = {e}")
        return s * math.exp(e) if e else s
    if e.any():  # exp(0) = 1 leaves the unsplit elements as they are
        over = e > 700.0
        if over.any():
            raise OverflowError(f"I overflows for x = {e[over][0]}")
        s *= _each(math.exp, e.ravel()).reshape(e.shape)
    return s
