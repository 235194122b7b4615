"""Self-contained special functions: gamma and Bessel functions of arbitrary
real order.

Everything here is pure.  ``bessel_scaled`` is the one Bessel entry, J, Y,
I or K by its letter, and returns each value split as s * exp(e); ``bessel``
multiplies it back.  Floats take the scalar kernels (``bessel_j`` and
``bessel_y`` are J's and Y's), ndarrays the array path, which repeats their
floating-point operations element by element and so returns the same bits.
J, Y and I are split by argument size: ascending power series for small x,
Hankel-type asymptotic expansions (truncated at the smallest term) for large
x, whose terms one loop, _asymptotic_sums, builds and sums for the three.  Y
of non-integer order goes through the reflection formula; exact integer
orders use the limiting log-series instead (no epsilon-offset tricks).  K is
Temme's series below x = 2 and Steed's continued fraction CF2 from 2 on
(Numerical Recipes 3rd ed. 6.6), each giving K_mu and K_(mu+1) for
|mu| <= 1/2 with no sin(pi*nu) divisor, then the upward recurrence in the
order.  The I and K kernels return e = x past x = 30 and e = -x from x = 2
on, so ratios over the order need no exp(+-x); elsewhere e = 0.

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

# Taylor coefficients c_0 .. c_25 of 1/Gamma(1 + z) = sum c_k z^k (DLMF 5.7.1),
# whose parts give Temme's Gamma_1 and Gamma_2 to 1e-17 for |z| <= 1/2.
_RECIP_GAMMA_TAYLOR = (
    1.0,
    0.5772156649015329,
    -0.6558780715202539,
    -0.04200263503409524,
    0.16653861138229148,
    -0.04219773455554433,
    -0.009621971527876973,
    0.0072189432466631,
    -0.0011651675918590652,
    -0.00021524167411495098,
    0.0001280502823881162,
    -2.013485478078824e-05,
    -1.2504934821426706e-06,
    1.133027231981696e-06,
    -2.056338416977607e-07,
    6.116095104481416e-09,
    5.002007644469223e-09,
    -1.18127457048702e-09,
    1.0434267116911005e-10,
    7.782263439905071e-12,
    -3.696805618642206e-12,
    5.100370287454476e-13,
    -2.0583260535665066e-14,
    -5.348122539423018e-15,
    1.2267786282382608e-15,
    -1.1812593016974588e-16,
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
# K takes Temme's series below here and CF2 from here on
_K_CF2_MIN = 2.0
_LN2 = math.log(2.0)
_EPS = 2.0**-52  # the spacing of floats at 1
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


# (2k - 1)^2 and 8k of the asymptotic terms' factor, k = 0 .. 199
_ODD_SQUARES = tuple((2.0 * k - 1.0) ** 2 for k in range(200))
_EIGHT_K = tuple(8.0 * k for k in range(200))


def _asymptotic_sums(kind: str, nu, x):
    """The sums of the terms t_k = a_k(nu)/x^k, k >= 1, of the large-argument
    expansions (DLMF 10.17.1, 10.40.1), truncated at the smallest term:
    (P, Q) of J and Y and (1 + sum (-1)^k t_k, 1 + sum t_k) for I.  An
    ndarray x truncates each element at its own smallest term.

    For large orders the terms grow before they decay, so divergence is only
    declared once a term grows after the decaying phase has started.  J and Y
    add term k to Q for odd k and to P for even k, negated when k % 4 >= 2.
    """
    jy = kind in "JY"
    mu = 4.0 * nu * nu
    if isinstance(x, np.ndarray):
        first, second = np.ones_like(x), (np.zeros_like(x) if jy else np.ones_like(x))
        term, prev = np.ones_like(x), np.ones_like(x)
        decaying, live = np.zeros(x.size, dtype=bool), np.ones(x.size, dtype=bool)
        for k in range(1, 200):
            np.multiply(term, (mu - _ODD_SQUARES[k]) / (_EIGHT_K[k] * x), out=term)
            mag = np.abs(term)
            smaller = mag < prev
            np.greater(live, decaying > smaller, out=live)  # smallest term passed: stop before it
            if not live.any():
                break
            decaying |= smaller
            if jy:
                acc = second if k % 2 else first
                (np.add if k % 4 < 2 else np.subtract)(acc, term, out=acc, where=live)
            else:
                (np.subtract if k % 2 else np.add)(first, term, out=first, where=live)
                np.add(second, term, out=second, where=live)
            np.greater(live, mag < 1e-18, out=live)
            prev = mag
        return first, second
    first, second = 1.0, (0.0 if jy else 1.0)
    term = prev = 1.0
    decaying = False
    for k in range(1, 200):
        term *= (mu - _ODD_SQUARES[k]) / (_EIGHT_K[k] * x)
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
            first += -term if k % 2 else term
            second += term
        if mag < 1e-18:
            break
        prev = mag
    return first, second


def _jy_asymptotic(kind: str, nu, x):
    """J (kind "J") or Y of the Hankel expansion, float or ndarray x."""
    p, q = _asymptotic_sums(kind, nu, x)
    omega = x - (0.5 * nu + 0.25) * math.pi
    if isinstance(x, np.ndarray):
        c, s, amp = np.cos(omega), np.sin(omega), np.sqrt(2.0 / (math.pi * x))
    else:
        c, s, amp = math.cos(omega), math.sin(omega), math.sqrt(2.0 / (math.pi * x))
    return amp * (p * c - q * s) if kind == "J" else amp * (p * s + q * c)


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


def _temme_gammas(mu):
    """(Gamma_1, Gamma_2, 1/Gamma(1 + mu), 1/Gamma(1 - mu)) of Temme's series
    for |mu| <= 1/2, mu a float or an ndarray, where Gamma_1 = (1/Gamma(1 - mu)
    - 1/Gamma(1 + mu)) / (2 mu) and Gamma_2 = (1/Gamma(1 - mu) + 1/Gamma(1 +
    mu)) / 2: the odd and the even part of the Taylor series of 1/Gamma(1 + z),
    so Gamma_1 has no cancellation near mu = 0 and is -Euler's gamma there."""
    m2 = mu * mu
    even = odd = 0.0
    for j in range(len(_RECIP_GAMMA_TAYLOR) - 2, -1, -2):
        even = even * m2 + _RECIP_GAMMA_TAYLOR[j]
        odd = odd * m2 + _RECIP_GAMMA_TAYLOR[j + 1]
    return -odd, even, even + mu * odd, even - mu * odd


def _sinh_ratio(e: float, big: float) -> float:
    """sinh(e) / e, 1 at e = 0, and from |e| = 1 on from big = exp(e)."""
    if abs(e) >= 1.0:
        return 0.5 * (big - 1.0 / big) / e
    return math.sinh(e) / e if e else 1.0


def _retire(new, live, at, done, ends, state):
    """A step's end in a term loop over ndarrays: the elements that stopped
    at this step (new, all of them live) put their ends into done at their
    places at and leave live, state's last array.  Stopped elements go on
    running the loop's steps, whose results nobody reads, until fewer than
    half are live: then at and each array of state keep the live elements
    alone (CF2 takes 76 steps at x = 2 and 5 at x = 750).  Returns (at,
    state)."""
    np.greater(live, new, out=live)
    new = np.flatnonzero(new)
    for out, end in zip(done, ends):
        out[at[new]] = end[new]
    if 2 * np.count_nonzero(live) >= live.size:
        return at, state
    keep = np.flatnonzero(live)
    return at[keep], [v[keep] for v in state]


def _k_temme(mu, x):
    """(K_mu(x), K_(mu+1)(x)) for |mu| <= 1/2 and x < 2, floats or ndarrays
    of one size, by Temme's series (Temme, J. Comput. Phys. 19, 1975;
    Numerical Recipes 3rd ed. 6.6).  exp(mu log(2/x)) is the power
    (x/2)^-mu, so the rounding of log(2/x) (737 at x = 1e-320) is not
    multiplied by mu; K_(mu+1) is 2 sum1 / x, as 2/x overflows below 1e-308."""
    array = isinstance(x, np.ndarray)
    each = _each if array else (lambda func, *args: func(*args))
    g1, g2, gp, gm = _temme_gammas(mu)
    d = _LN2 - each(math.log, x)  # -log(x/2), with no rounding of a subnormal x/2
    e = mu * d
    big = each(operator.pow, x, -mu) * each(lambda m: 2.0**m, mu)  # exp(e)
    # pi mu / sin(pi mu) = Gamma(1 + mu) Gamma(1 - mu)
    ff = (g1 * (0.5 * (big + 1.0 / big)) + g2 * each(_sinh_ratio, e, big) * d) / (gp * gm)
    p = 0.5 * big / gp
    q = 0.5 / (big * gm)
    c, quarter, m2 = 1.0, 0.25 * x * x, mu * mu
    total, total1 = ff, p
    if array:
        at, done = np.arange(x.size), (np.empty_like(x), np.empty_like(x))
        live = np.ones(x.size, dtype=bool)
    for i in range(1, _SERIES_MAX_TERMS):
        ff = (i * ff + p + q) / (i * i - m2)
        c = c * (quarter / i)
        p = p / (i - mu)
        q = q / (i + mu)
        term = c * ff
        total = total + term
        total1 = total1 + c * (p - i * ff)
        stop = abs(term) < abs(total) * _EPS
        if not array:
            if stop:
                break
        elif np.logical_and(stop, live, out=stop).any():
            at, (ff, c, p, q, total, total1, quarter, mu, m2, live) = _retire(
                stop, live, at, done, (total, total1),
                (ff, c, p, q, total, total1, quarter, mu, m2, live))
            if not at.size:
                total, total1 = done
                break
    return total, 2.0 * total1 / x


def _k_cf2(mu, x):
    """(e^x K_mu(x), e^x K_(mu+1)(x)) for |mu| <= 1/2 and x >= 2, floats or
    ndarrays of one size, by Steed's method on the continued fraction CF2
    (Temme 1975; Numerical Recipes 3rd ed. 6.6), with no exp(-x)."""
    array = isinstance(x, np.ndarray)
    a1 = 0.25 - mu * mu
    b = 2.0 * (1.0 + x)
    d = 1.0 / b
    h = delh = d
    q1, q2 = 0.0 * x, 0.0 * x + 1.0  # 0 and 1 in x's type: _retire indexes q1 from step 1
    q = c = a1
    a = -a1
    s = 1.0 + q * delh
    if array:
        at, done = np.arange(x.size), (np.empty_like(x), np.empty_like(x))
        live = np.ones(x.size, dtype=bool)
    for i in range(1, _SERIES_MAX_TERMS):
        a = a - 2 * i
        c = -a * c / (i + 1.0)
        q1, q2 = q2, (q1 - b * q2) / a
        q = q + c * q2
        b = b + 2.0
        d = 1.0 / (b + a * d)
        delh = (b * d - 1.0) * delh
        h = h + delh
        dels = q * delh
        s = s + dels
        stop = abs(dels / s) < _EPS
        if not array:
            if stop:
                break
        elif np.logical_and(stop, live, out=stop).any():
            at, (a, c, q1, q2, q, b, d, delh, h, s, live) = _retire(
                stop, live, at, done, (h, s), (a, c, q1, q2, q, b, d, delh, h, s, live))
            if not at.size:
                h, s = done
                break
    k = (np.sqrt if array else math.sqrt)(math.pi / (2.0 * x)) / s
    return k, k * (mu + x + 0.5 - a1 * h) / x


def bessel_j(nu: float, x: float) -> float:
    """Bessel function of the first kind, real order."""
    nu, x = _check(nu, x)
    if nu < 0.0 and nu == math.floor(nu):
        n = int(-nu)
        val = bessel_j(float(n), x)
        return -val if n % 2 else val
    if x < _jy_cutover(nu):
        return _series(nu, x, -1.0)
    return _jy_asymptotic("J", nu, x)


def bessel_y(nu: float, x: float) -> float:
    """Bessel function of the second kind, real order."""
    nu, x = _check(nu, x)
    if nu < 0.0 and nu == math.floor(nu):
        n = int(-nu)
        val = bessel_y(float(n), x)
        return -val if n % 2 else val
    if x >= _jy_cutover(nu):
        return _jy_asymptotic("Y", nu, x)
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
    """K_nu(x) = s exp(e) as (s, e): K_mu and K_(mu+1), |mu| <= 1/2, from
    Temme's series with e = 0 below x = 2 and from CF2 with e = -x from 2
    on, carried to |nu| = mu + n by the upward recurrence, which is stable
    for K.  OverflowError where s is past the float range."""
    nu, x = _check(nu, x)
    nu = abs(nu)  # K is even in its order
    n = int(nu + 0.5)
    mu = nu - n
    k0, k1 = (_k_temme if x < _K_CF2_MIN else _k_cf2)(mu, x)
    for i in range(1, n):
        k0, k1 = k1, (mu + i) * 2.0 / x * k1 + k0
    k = k1 if n else k0
    if k == math.inf:
        raise OverflowError(f"K overflows for x = {x}")
    return k, (0.0 if x < _K_CF2_MIN else -x)


# ---------------------------------------------------------------------------
# Array path
# ---------------------------------------------------------------------------
#
# Each array kernel repeats the floating-point operations of its scalar
# kernel in the same order, element by element: a term loop runs until its
# last element meets the scalar stopping rule, and each element stops adding
# terms where the scalar kernel would have stopped.  The loops of
# _series_array and _asymptotic_sums run the term recurrence (term, peak,
# prev) on every element unmasked, as an element's values after its stop are
# never read; only the running sums take where=live, and each stop rule
# clears live with one np.greater(live, stop).  _asymptotic_sums keeps its
# ndarray loop beside its float loop; where the float loop adds a negated
# term, the ndarray loop calls np.subtract, which gives the same bits
# without the temporary.  exp, log, sinh and sin go through
# ``math`` and pow through Python's float power (``operator.pow``), because
# numpy's versions differ from libm's in the last place for a few percent of
# arguments; numpy's arithmetic, sqrt, sin and cos are used as they are.
# A factor that elements share is computed once per distinct argument, as
# the same call on the same float gives the same bits: gamma and sin(pi nu)
# per order.  Sub-paths that would not pay to vectorise (Y of integer order
# below the cutover, arrays under _ARRAY_MIN_SIZE elements) loop the scalar
# kernels.  The K kernels are one code for floats and ndarrays: an ndarray
# runs the float loop's steps on all its elements and records each one's
# ends at its stop (_retire).  Dropping the stopped elements costs a copy of
# every state array, so the K loops drop them only once fewer than half are
# live; the J, Y and I loops never do.


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
        np.multiply(term, q / (k * (k + nu)), out=term)
        np.add(total, term, out=total, where=live)
        mag = np.abs(term)
        grow = mag > peak
        np.copyto(peak, mag, where=grow)
        if k > 2:
            stop = mag <= 1e-17 * peak
            if k <= k_dip:
                stop &= k > -nu
            np.greater(live, stop > grow, out=live)
            if not live.any():
                break
    return total


def _negative_integers(nu: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(nu with negative integers replaced by -nu, mask of the odd ones)."""
    neg = (nu < 0.0) & (nu == np.floor(nu))
    return np.where(neg, -nu, nu), neg & (np.fmod(nu, 2.0) != 0.0)


def _jy_array(kind: str, nu: np.ndarray, x: np.ndarray) -> np.ndarray:
    nu, odd = _negative_integers(nu)
    out = np.empty_like(x)
    asym = x >= _jy_cutover(nu)
    if asym.any():
        out[asym] = _jy_asymptotic(kind, nu[asym], x[asym])
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
        else:  # reflection through J of orders +-nu, both in one series loop
            both = _series_array(np.concatenate((v, -v)), np.concatenate((t, t)), -1.0)
            jp, jm = np.split(both, 2)
            out[series] = (jp * _per_value(_cospi, v) - jm) / _per_value(_sinpi, v)
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
    n = (nu + 0.5).astype(int)
    mu = nu - n
    k0, k1 = np.empty_like(x), np.empty_like(x)
    temme = x < _K_CF2_MIN
    for part, kernel in ((temme, _k_temme), (~temme, _k_cf2)):
        if part.any():
            k0[part], k1[part] = kernel(mu[part], x[part])
    for i in range(1, int(n.max())):
        up = i < n
        k0, k1 = np.where(up, k1, k0), np.where(up, (mu + i) * 2.0 / x * k1 + k0, k1)
    k = np.where(n > 0, k1, k0)
    if (k == math.inf).any():
        raise OverflowError(f"K overflows for x = {x[k == math.inf][0]}")
    return k, np.where(temme, 0.0, -x)


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

    e = x for I past its series range (x > 30), where s = e^-x I is summed
    from the large-argument expansion, and e = -x for K from x = 2 on, where
    CF2 gives s = e^x K itself: s neither overflows nor underflows there, and
    I has no upper limit on x.  Elsewhere, and for J and Y, e = 0 and s is the value
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
