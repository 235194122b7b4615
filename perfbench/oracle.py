"""Reference values for every output the benchmark checks.

Nothing here imports fracriccati: the Bessel ratios, zeros and gamma values
come from scipy, and the operator oracles are closed forms or term-by-term
power-rule series.  Each check function takes a job and its captured output
and returns one verdict per attempted row:

* ``ok``: the row matches its oracle within the tolerance;
* ``failed``: the program did not deliver the row to its contract: the job
  raised or exited non-zero, the row is a pole row where no pole lies, or
  the value misses its tolerance by less than ``WRONG_FACTOR``;
* ``wrong``: the program delivered a value or pole flag that the oracle
  contradicts outright: a missing pole row, a non-finite value, a value
  further off than ``WRONG_FACTOR`` tolerances, a malformed table.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import optimize, special

OK, FAILED, WRONG = "ok", "failed", "wrong"

# README accuracy contract: 10 significant digits, scaled near zeros
BESSEL_RTOL = 1e-10
# slack on the half-step pole rule, well above the 1e-12 pole bisection
HALF_STEP_SLACK = 1e-7
# acceptance criteria 1, 2 and 9: operators to 1e-6 relative
OPERATOR_RTOL = 1e-6
# acceptance criterion 6: DP5 deviation from the closed form
VERIFY_TOL = 1e-6
# a miss by more than this many tolerances is a wrong value, not a failed row
WRONG_FACTOR = 1e3
SERIES_TERMS = 60


# ---------------------------------------------------------------------------
# Bessel template of u' + a u^2 = b x^(1-delta)/Gamma(2-delta)
# ---------------------------------------------------------------------------


class Template:
    """Order n, q, r and the Bessel pair of one closed-form branch."""

    def __init__(self, a: float, b: float, delta: float, branch: int):
        self.a, self.branch = a, branch
        self.r = 0.5 * (3.0 - delta)
        self.n = 1.0 / (3.0 - delta)
        self.q = (2.0 / (3.0 - delta)) * math.sqrt(abs(a * b) / special.gamma(2.0 - delta))
        self.oscillatory = a * b < 0.0

    def z(self, x):
        return self.q * np.asarray(x, dtype=float) ** self.r

    def x_of_z(self, z):
        return (np.asarray(z, dtype=float) / self.q) ** (1.0 / self.r)

    def den(self, z):
        """The denominator function B_n(z); its zeros are the poles."""
        if self.branch == 1:
            return special.jv(self.n, z) if self.oscillatory else special.ive(self.n, z)
        return special.yv(self.n, z) if self.oscillatory else special.kve(self.n, z)

    def u_and_tol(self, x):
        """Closed-form branch value and its error allowance at x (arrays)."""
        x = np.asarray(x, dtype=float)
        z = self.z(x)
        n = self.n
        pref = self.q * self.r * x ** (self.r - 1.0) / self.a
        if self.oscillatory:
            if self.branch == 1:
                num, den = special.jv(n - 1.0, z), special.jv(n, z)
            else:
                num, den = special.yv(n - 1.0, z), special.yv(n, z)
            # modulus sqrt(J^2 + Y^2) bounds each function's absolute error
            m_num = np.hypot(special.jv(n - 1.0, z), special.yv(n - 1.0, z))
            m_den = np.hypot(special.jv(n, z), special.yv(n, z))
            with np.errstate(divide="ignore", invalid="ignore"):
                u = pref * num / den
                tol = BESSEL_RTOL * np.abs(pref) * (
                    m_num / np.abs(den) + np.abs(num) * m_den / den**2
                )
            return u, tol
        if self.branch == 1:
            u = pref * special.ive(n - 1.0, z) / special.ive(n, z)
        else:
            u = -pref * special.kve(n - 1.0, z) / special.kve(n, z)
        return u, 2.0 * BESSEL_RTOL * np.abs(u)

    def y_ratio(self, x, x_ref):
        """y(x)/y(x_ref) of the linear branch y = sqrt(x) B_n(q x^r)."""
        z, zr = self.z(x), float(self.z(x_ref))
        root = np.sqrt(np.asarray(x, dtype=float) / x_ref)
        if self.oscillatory:
            return root * self.den(z) / self.den(zr)
        if self.branch == 1:
            return root * special.ive(self.n, z) / special.ive(self.n, zr) * np.exp(z - zr)
        return root * special.kve(self.n, z) / special.kve(self.n, zr) * np.exp(zr - z)

    def zeros(self, x_lo: float, x_hi: float) -> np.ndarray:
        """Poles of the branch in [x_lo, x_hi], located with scipy."""
        if not self.oscillatory:
            return np.empty(0)
        z_lo, z_hi = float(self.z(x_lo)), float(self.z(x_hi))
        # zeros of J_n, Y_n are about pi apart; a pi/16 lattice brackets each
        zs = np.linspace(z_lo, z_hi, max(16, int((z_hi - z_lo) / (math.pi / 16.0)) + 2))
        fs = self.den(zs)
        out = []
        for i in np.nonzero(np.sign(fs[:-1]) * np.sign(fs[1:]) <= 0.0)[0]:
            if fs[i] == 0.0:
                out.append(zs[i])
            elif fs[i + 1] != 0.0:
                out.append(optimize.brentq(self.den, zs[i], zs[i + 1], xtol=1e-15, rtol=1e-15))
        if fs[-1] == 0.0:
            out.append(zs[-1])
        return self.x_of_z(np.unique(np.array(out, dtype=float)))


def pole_free_interval(t: Template, x_lo: float, x_hi: float, rng, margin: float = 0.15):
    """A random sub-interval of [x_lo, x_hi] kept ``margin`` of its gap away
    from every pole of the branch, drawn from the wider gaps between poles."""
    zs = t.zeros(0.5 * x_lo, 1.5 * x_hi)
    edges = [x_lo] + [float(p) for p in zs if x_lo < p < x_hi] + [x_hi]
    gaps = []
    for a, b in zip(edges[:-1], edges[1:]):
        pad = margin * (b - a)
        gaps.append((a + (pad if a != x_lo else 0.0), b - (pad if b != x_hi else 0.0)))
    widest = max(hi - lo for lo, hi in gaps)
    lo, hi = rng.choice([g for g in gaps if g[1] - g[0] >= 0.5 * widest])
    width = hi - lo
    return lo + rng.uniform(0.0, 0.3) * width, hi - rng.uniform(0.0, 0.3) * width


# ---------------------------------------------------------------------------
# operator oracles
# ---------------------------------------------------------------------------


def power_rule(a: float, order: float, x: float) -> float:
    """D^order t^a at x (order < 0: integral); 0 where 1/Gamma vanishes."""
    return float(special.gamma(a + 1.0) * special.rgamma(a + 1.0 - order) * x ** (a - order))


def series_oracle(name: str, order: float, x: float) -> float:
    """D^order of sin or exp through their Taylor series, term by term."""
    if name == "sin":
        ks = np.arange(SERIES_TERMS)
        pw = 2.0 * ks + 1.0
        coef = (-1.0) ** ks / special.gamma(pw + 1.0)
    elif name == "exp":
        pw = np.arange(float(SERIES_TERMS))
        coef = 1.0 / special.gamma(pw + 1.0)
    else:
        raise ValueError(name)
    terms = coef * special.gamma(pw + 1.0) * special.rgamma(pw + 1.0 - order) * x ** (pw - order)
    return float(math.fsum(terms))


def function_oracle(spec: dict, order: float, x: float) -> float:
    kind = spec["kind"]
    if kind == "power":
        return power_rule(spec["a"], order, x)
    if kind == "poly":
        return math.fsum(c * power_rule(float(j), order, x) for j, c in enumerate(spec["coeffs"]))
    if kind in ("sin", "exp"):
        return series_oracle(kind, order, x)
    if kind == "samples":
        # the profile samples I^beta t^a; the semigroup gives the rest
        return power_rule(spec["a"], order - spec["beta"], x)
    raise ValueError(kind)


def solve_linear_oracle(job: dict, x: np.ndarray) -> np.ndarray:
    """u' + p0 u = D^(delta-1) t^a with p0 <= 0 constant, by closed form.

    The solver anchors the integrating factor at the grid start xs and
    integrates from 0: u = e^(-p0 (x - xs)) [int_0^x e^(p0 (s - xs)) v(s) ds
    + c] with v = Gamma(a+1)/Gamma(a+2-delta) s^(a+1-delta)."""
    a, delta, p0, c = job["a"], job["delta"], job["p0"], job["c"]
    xs = job["grid"][0]
    m = a + 2.0 - delta
    scale = special.gamma(a + 1.0) / special.gamma(m)
    if p0 == 0.0:
        return c + scale * x**m / m
    lam = -p0
    # int_0^x e^(-lam s) s^(m-1) ds = lam^-m Gamma(m) P(m, lam x)
    integral = scale * lam ** (-m) * special.gamma(m) * special.gammainc(m, lam * x)
    return np.exp(lam * (x - xs)) * (np.exp(lam * xs) * integral + c)


# ---------------------------------------------------------------------------
# table parsing and checks
# ---------------------------------------------------------------------------


def parse_table(text: str, header: str) -> np.ndarray | None:
    lines = text.splitlines()
    if not lines or lines[0] != "# " + header:
        return None
    ncol = header.count(",") + 1
    if len(lines) == 1:
        return np.empty((0, ncol))
    try:
        arr = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    except ValueError:
        return None
    return arr if arr.shape[1] == ncol else None


def _grid(g):
    return np.linspace(g[0], g[1], int(g[2]))


def _check_branch_rows(t: Template, grid, xs, vals, poles) -> list[str]:
    """Verdicts for (x, u, pole) rows on one uniform grid."""
    pts = _grid(grid)
    if xs.shape != pts.shape or np.any(xs != pts):
        return [WRONG] * pts.size
    step = (grid[1] - grid[0]) / (grid[2] - 1)
    half = 0.5 * step
    zeros = t.zeros(max(grid[0] - half * 1.01, 1e-12), grid[1] + half * 1.01)
    dist = np.full(pts.size, np.inf)
    if zeros.size:
        idx = np.searchsorted(zeros, pts)
        below = zeros[np.clip(idx - 1, 0, zeros.size - 1)]
        above = zeros[np.clip(idx, 0, zeros.size - 1)]
        dist = np.minimum(np.abs(pts - below), np.abs(pts - above))
    must_flag = dist < half * (1.0 - HALF_STEP_SLACK)
    may_flag = dist <= half * (1.0 + HALF_STEP_SLACK)
    u, tol = t.u_and_tol(pts)
    verdicts = []
    for i in range(pts.size):
        if poles[i] == 1.0:
            if not math.isnan(vals[i]):
                verdicts.append(WRONG)
            else:
                verdicts.append(OK if may_flag[i] else FAILED)
        elif poles[i] != 0.0 or must_flag[i]:
            verdicts.append(WRONG)
        else:
            verdicts.append(_grade(vals[i], u[i], tol[i]))
    return verdicts


def _arg(argv, flag):
    return argv[argv.index(flag) + 1]


def _grid_arg(argv, flag):
    s, e, n = _arg(argv, flag).split(":")
    return (float(s), float(e), int(n))


def check_cli(job: dict, out: str) -> list[str]:
    argv = job["argv"]
    cmd, action = argv[0], argv[1]
    if cmd == "riccati" and action == "eval":
        t = Template(float(_arg(argv, "--a")), float(_arg(argv, "--b")),
                     float(_arg(argv, "--delta")), int(_arg(argv, "--branch")))
        grid = _grid_arg(argv, "--grid")
        tab = parse_table(out, "x,u,pole")
        if tab is None or len(tab) != grid[2]:
            return [WRONG] * job["rows"]
        return _check_branch_rows(t, grid, tab[:, 0], tab[:, 1], tab[:, 2])
    if cmd == "riccati" and action == "poles":
        return _check_poles(argv, out)
    if cmd == "riccati" and action == "verify":
        return _check_verify(argv, out)
    if cmd == "cosmo":
        k = int(_arg(argv, "--k"))
        c = float(_arg(argv, "--c"))
        branch = int(_arg(argv, "--branch"))
        grid = _grid_arg(argv, "--grid")
        if action == "hubble":
            t = Template(c, -k * c, float(_arg(argv, "--delta")), branch)
            tab = parse_table(out, "eta,H,pole")
            if tab is None or len(tab) != grid[2]:
                return [WRONG] * job["rows"]
            return _check_branch_rows(t, grid, tab[:, 0], tab[:, 1], tab[:, 2])
        if action == "figure":
            dgrid = _grid_arg(argv, "--delta-grid")
            tab = parse_table(out, "eta,delta,H,pole")
            if tab is None or len(tab) != grid[2] * dgrid[2]:
                return [WRONG] * job["rows"]
            verdicts = []
            for j, d in enumerate(_grid(dgrid)):
                part = tab[j * grid[2]:(j + 1) * grid[2]]
                if np.any(part[:, 1] != d):
                    verdicts.extend([WRONG] * grid[2])
                    continue
                t = Template(c, -k * c, float(d), branch)
                verdicts.extend(_check_branch_rows(t, grid, part[:, 0], part[:, 2], part[:, 3]))
            return verdicts
        if action == "scale":
            t = Template(c, -k * c, float(_arg(argv, "--delta")), branch)
            tab = parse_table(out, "eta,R_ratio")
            if tab is None or len(tab) != grid[2]:
                return [WRONG] * job["rows"]
            pts = _grid(grid)
            if np.any(tab[:, 0] != pts):
                return [WRONG] * job["rows"]
            want = t.y_ratio(pts, grid[0]) ** (1.0 / c)
            tol = 4.0 * BESSEL_RTOL * max(1.0, 1.0 / abs(c)) * np.abs(want)
            return [_grade(g, w, e) for g, w, e in zip(tab[:, 1], want, tol)]
    if cmd == "fracderiv":
        return _check_fracderiv(job, out)
    raise ValueError(f"no oracle for {argv}")


def _check_poles(argv, out: str) -> list[str]:
    t = Template(float(_arg(argv, "--a")), float(_arg(argv, "--b")),
                 float(_arg(argv, "--delta")), int(_arg(argv, "--branch")))
    lo, hi, _ = _grid_arg(argv, "--grid")
    tab = parse_table(out, "x_pole")
    want = t.zeros(lo, hi)
    if tab is None:
        return [WRONG] * max(1, want.size)
    got = tab[:, 0]
    verdicts = []
    matched = np.zeros(want.size, dtype=bool)
    for g in got:
        j = int(np.argmin(np.abs(want - g))) if want.size else -1
        if j >= 0 and abs(want[j] - g) <= 1e-9 * abs(want[j]) and not matched[j]:
            matched[j] = True
            verdicts.append(OK)
        else:
            verdicts.append(WRONG)
    # zeros the program missed; one hugging an endpoint may fall either way
    for j in np.nonzero(~matched)[0]:
        if min(want[j] - lo, hi - want[j]) > 1e-9 * hi:
            verdicts.append(FAILED)
    return verdicts


def _check_verify(argv, out: str) -> list[str]:
    a, b, delta = float(_arg(argv, "--a")), float(_arg(argv, "--b")), float(_arg(argv, "--delta"))
    branch = int(_arg(argv, "--branch"))
    x0, x1 = float(_arg(argv, "--x0")), float(_arg(argv, "--x1"))
    tab = parse_table(out, "a,b,delta,branch,x0,x1,max_residual,max_deviation")
    if tab is None or len(tab) != 1:
        return [WRONG]
    row = tab[0]
    if list(row[:6]) != [a, b, delta, branch, x0, x1]:
        return [WRONG]
    u, _ = Template(a, b, delta, branch).u_and_tol(np.linspace(x0, x1, 33))
    if not (math.isfinite(row[6]) and row[7] >= 0.0):
        return [WRONG]
    return [_grade(row[7], 0.0, VERIFY_TOL * (1.0 + float(np.max(np.abs(u)))))]


def _check_fracderiv(job: dict, out: str) -> list[str]:
    spec, beta, grid = job["f"], job["beta"], job["grid"]
    has_oracle = spec["kind"] in ("power", "poly")
    header = "x,numeric,oracle,abs_err" if has_oracle else "x,numeric"
    tab = parse_table(out, header)
    pts = _grid(grid)
    if tab is None or len(tab) != pts.size or np.any(tab[:, 0] != pts):
        return [WRONG] * pts.size
    verdicts = []
    for i, x in enumerate(pts):
        want = function_oracle(spec, beta, float(x))
        # the printed oracle column and its error column are outputs too
        if has_oracle and (abs(tab[i, 2] - want) > 1e-12 * (1.0 + abs(want))
                           or tab[i, 3] != abs(tab[i, 1] - tab[i, 2])):
            verdicts.append(WRONG)
        else:
            verdicts.append(_grade_operator(tab[i, 1], want))
    return verdicts


def _grade(got: float, want: float, tol: float) -> str:
    if not math.isfinite(got):
        return WRONG
    err = abs(got - want)
    if err <= tol:
        return OK
    return FAILED if err <= WRONG_FACTOR * tol else WRONG


def _grade_operator(got: float, want: float) -> str:
    return _grade(got, want, OPERATOR_RTOL * max(abs(want), 1e-2))


def check_call(job: dict, values: list[float]) -> list[str]:
    """Verdicts for the values a direct library call returned."""
    if job["call"] == "rl_integral":
        want = [function_oracle(job["f"], -job["alpha"], x) for x in job["xs"]]
    elif job["call"] == "solve_linear_fractional":
        want = list(solve_linear_oracle(job, _grid(job["grid"])))
    else:
        raise ValueError(job["call"])
    if len(values) != len(want):
        return [WRONG] * len(want)
    return [_grade_operator(g, w) for g, w in zip(values, want)]


def check(job: dict, result: dict) -> list[str]:
    """One verdict per attempted row of a finished job."""
    if result["error"] is not None or result["exit"] != 0:
        return [FAILED] * job["rows"]
    if "argv" in job:
        return check_cli(job, result["out"])
    return check_call(job, result["values"])
