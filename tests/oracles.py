"""mpmath oracles for the tests, each definition written once.

A modulus is read for its family and parameters only, never for its float64
calculus, and so is a radial map.  Three shared pieces run at the
caller's working precision: ``_tower`` (the iterated exponentials e_j),
``jet`` (phi(e^-u) and its elasticity g) and ``from_v`` (the substitution
v = L_k(u) under the E[phi] and |DH|^n integrals).  Each oracle sets its
own precision and names it in its docstring.
"""

from functools import lru_cache

import mpmath as mp


@lru_cache
def _tower(phi, prec):
    """(e_{j-1}, a_j, beta_j) of each iterlog factor j, e_j = exp(e_{j-1}) from e_0 = 0."""
    with mp.workprec(prec):
        e, inv_n, factors = mp.mpf(0), mp.mpf(1) / phi.n, []
        for j in range(1, phi.depth + 1):
            beta = mp.mpf(phi.alpha) if j == phi.depth else inv_n
            factors.append((e, (1 - inv_n) ** (j - 1), beta))
            e = mp.exp(e)
        return tuple(factors)


def jet(phi, u):
    """(phi(s), g(s)) at s = e^-u, from the family's definition.

    Power (the identity at eps = 1) is s^eps with g = eps.  Iterlog of depth
    k is prod_j (1 + a_j L_j)^(-beta_j) with L_j the (j-1)-fold log of
    e_{j-1} + u, a_j = (1 - 1/n)^(j-1), beta_j = 1/n for j < k and
    beta_k = alpha; g = -d log phi / du sums the factors' chain rules.
    log(1 + a_j L_j) is the log of the sum, not log1p: an absolute error of
    one unit in the last place there is the same relative error of phi.
    """
    u = mp.mpf(u)
    if phi.family != "iterlog":
        eps = mp.mpf(phi.eps)
        return mp.exp(-eps * u), eps
    log_phi = g = mp.mpf(0)
    for logs, (e, a, beta) in enumerate(_tower(phi, mp.mp.prec)):
        level, slope = e + u, mp.mpf(1)             # L_j and dL_j/du
        for _ in range(logs):
            slope /= level
            level = mp.ln(level)
        factor = 1 + a * level
        log_phi -= beta * mp.ln(factor)
        g += beta * a * slope / factor
    return mp.exp(log_phi), g


def cone_preimage(phi, rho, tau):
    """T with T phi(T + rho) / (T + rho) = tau at 50 digits: the height of
    the cone map's preimage of (y, tau), |y| = rho > 0.

    mp.findroot brackets u = log T between log 2^-1074 - 2000, where
    u - log tau + log(phi(sigma)/sigma) <= u - log tau - log rho is negative
    for rho, tau >= 1e-300, and log tau, where it is >= 0; phi(sigma) = sigma
    from sigma = 1 on.  A root below the float floor comes back as it is.
    """
    with mp.workdps(50):
        rho, log_tau = mp.mpf(rho), mp.log(mp.mpf(tau))

        def F(u):
            sigma = mp.exp(u) + rho
            return u + mp.log(modulus(phi, sigma) / sigma) - log_tau

        lo = mp.log(mp.mpf(2) ** -1074) - 2000
        return mp.exp(mp.findroot(F, (lo, log_tau), solver="anderson",
                                   maxsteps=500))


def radial_stress(h, L):
    """(stress(rho), g) of a logexample RadialMap at rho = e^-L, from its definition.

    stress = (1 + L)^(-1/n) log(e + L)^(-beta), and g = -d log stress / dL
    = 1 / (n (1 + L)) + beta / ((e + L) log(e + L)).  At the caller's
    working precision.
    """
    L, n, beta = mp.mpf(L), h.n, mp.mpf(h.beta)
    loglog = mp.ln(mp.e + L)
    return ((1 + L) ** (-mp.mpf(1) / n) * loglog ** -beta,
            1 / (n * (1 + L)) + beta / ((mp.e + L) * loglog))


def log_preimage(profile, v):
    """(s, g) with profile(L) = (v, g) at s = e^-L, at 50 digits.

    ``profile(L)`` gives a value and its g at s = e^-L, as ``jet`` and
    ``radial_stress`` do, the value falling from 1 at L = 0; v is in (0, 1).
    mp.findroot brackets L between 0 and 700, where the value must have
    fallen below v: the preimage is above e^-700 ~ 1e-304.
    """
    with mp.workdps(50):
        log_v = mp.log(mp.mpf(v))
        L = mp.findroot(lambda L: mp.log(profile(L)[0]) - log_v, (0, 700),
                        solver="anderson", maxsteps=500)
        return mp.exp(-L), profile(L)[1]


def modulus(phi, s):
    """phi(s) for s > 0, the identity from s = 1 on."""
    return s if s >= 1 else jet(phi, -mp.log(s))[0]


def from_v(phi, v):
    """(phi^n du/dv, s/phi, g) at u = L_k^{-1}(v) for iterlog of depth k.

    The tower w_0 = v, w_i = exp(w_{i-1}) gives u = w_{k-1} - e_{k-1} and
    du/dv = w_1 ... w_{k-1}.  From w_{k-1} = 10^(2 dps) on, L_j = w_{k-j} up
    to a relative e_{k-1}/u, below working precision, so 1 + a_j L_j =
    w_{k-j} (a_j + exp(-w_{k-j-1})), phi^n du/dv = (1 + a_k v)^(-n alpha)
    / prod_{j<k} (a_j + exp(-w_{k-j-1})), and s/phi and g (about 1/u) read
    0.  Power takes v = u.
    """
    if phi.family != "iterlog":
        value, g = jet(phi, v)
        return value ** phi.n, mp.exp(-v) / value, g
    factors = _tower(phi, mp.mp.prec)
    k, w = len(factors), [mp.mpf(v)]
    while len(w) < k and w[-1] < 10 ** 4:
        w.append(mp.exp(w[-1]))
    if len(w) == k and w[-1] < mp.mpf(10) ** (2 * mp.mp.dps):
        u = w[-1] - factors[-1][0]
        value, g = jet(phi, u)
        return value ** phi.n * mp.fprod(w[1:]), mp.exp(-u) / value, g
    _, a_k, alpha = factors[-1]
    weight = (1 + a_k * w[0]) ** (-phi.n * alpha)
    for (_, a, _), i in zip(factors, range(k - 2, -1, -1)):     # i = k - j - 1
        weight /= a + (mp.exp(-w[i]) if i < len(w) else 0)
    return weight, 0, 0


@lru_cache
def _gauss_legendre(count, prec):
    """count Gauss-Legendre (node, weight) pairs on [0, 1], to `prec` bits."""
    with mp.workprec(prec + 20):
        nodes, weights = mp.gauss_quadrature(count, "legendre")
        return tuple(((1 + x) / 2, w / 2) for x, w in zip(nodes, weights))


@lru_cache
def _w_rule(n, lo, hi, count, prec):
    """The _gauss_legendre rule moved to [lo, hi], with (1-w)^(n-2) in its weights."""
    with mp.workprec(prec):
        width = hi - lo
        return tuple((lo + width * x, width * weight * (1 - lo - width * x) ** (n - 2))
                     for x, weight in _gauss_legendre(count, prec))


def w_integral(n, s, phi, g, lo, hi, count):
    """int_lo^hi ((n-1) s^2 + phi^2 Q)^(n/2) (1-w)^(n-2) dw by count-node Gauss-Legendre.

    Q = (wc)^2 + (1 - wc)^2 with c = 1 - g: |DH|^n at height fraction w in
    the reduced (u, w) form of the upper cone.  At working precision.
    """
    c, base, phi2 = 1 - g, (n - 1) * s * s, phi * phi
    terms = []
    for w, weight in _w_rule(n, lo, hi, count, mp.mp.prec):
        wc = w * c
        terms.append(weight * mp.sqrt(base + phi2 * (wc * wc + (1 - wc) * (1 - wc))) ** n)
    return mp.fsum(terms)


def w_moment(n):
    """W_n(1) = int_0^1 (w^2 + (1-w)^2)^(n/2) (1-w)^(n-2) dw at 30 digits: the
    w-integral of |DH|^n / phi^n where s is negligible against phi."""
    with mp.workdps(30):
        return mp.quad(lambda w: (w * w + (1 - w) ** 2) ** (mp.mpf(n) / 2) * (1 - w) ** (n - 2),
                       [0, 1])


def modulus_energy(phi):
    """E[phi] = int_0^inf phi(e^-u)^n du at 40 digits, integrated in v (from_v)."""
    with mp.workdps(40):
        return mp.quad(lambda v: from_v(phi, v)[0], [0, 1, 16, mp.inf])


def conformal_energy(phi):
    """int |DH|^n over the upper cone at 20 digits, from the reduced (v, w) form.

    The w integral is phi^n w_integral(s/phi, 1): n nodes for even n, where
    it is a polynomial of degree 2n - 2, and 30 for odd n, where it is
    analytic within distance 1/2 of [0, 1], so the rule error is about
    (1 + sqrt 2)^-60 = 1e-23 relative.  The v integral breaks every factor
    1e4 up to where from_v takes its limit form, so that no piece spans many
    decades (depth 1 runs to v = 1e40).
    """
    n = phi.n
    count = n if n % 2 == 0 else 30
    with mp.workdps(20):
        def integrand(v):
            weight, r, g = from_v(phi, v)
            return weight * w_integral(n, r, 1, g, 0, 1, count)

        switch = mp.mpf(10) ** 40
        for _ in range((phi.depth or 1) - 1):
            switch = mp.log(switch)
        points = [mp.mpf(0), mp.mpf(1)]
        while points[-1] * 10 ** 4 < switch:
            points.append(points[-1] * 10 ** 4)
        sigma = 2 * mp.pi ** ((n - 1) / mp.mpf(2)) / mp.gamma((n - 1) / mp.mpf(2))
        return sigma * mp.quad(integrand, points + [switch, mp.inf])


def inverse_energy(phi):
    """int K_H over the upper cone at n = 2, 20 digits.

    With z = 1 - w(1-g) the reduced integrand s (s^2 + R^2 + P^2) / P is
    (s/phi) (s^2 + phi^2 ((1-z)^2 + z^2)) / z, whose w integral is closed:
    s / (phi (1-g)) (s^2 log(1/g) + phi^2 (log(1/g) - (1-g)^2)).  At g = 1
    (the identity, or power at eps = 1) it takes its limit s/phi (s^2 + phi^2).
    """
    assert phi.n == 2
    with mp.workdps(20):
        def integrand(u):
            value, g = jet(phi, u)
            s = mp.exp(-u)
            if g == 1:
                return s / value * (s * s + value ** 2)
            log_g = -mp.log(g)
            return s / (value * (1 - g)) * (s * s * log_g
                                            + value ** 2 * (log_g - (1 - g) ** 2))

        return 2 * mp.quad(integrand, [0, 1, 4, 16, 64, 256, mp.inf])


def inverse_cell(n, sigma, g):
    """The K_H w-integral at one u-node, over phi s^(n-1), at 30 digits.

    With z = 1 - w(1-g), sigma = s/phi, P = phi z and R = phi (1-z), the
    reduced K_H integrand over phi s^(n-1) is
    [(sigma^2 + (1-z)^2)/z^2 + n-1]^(n/2) z (1-w)^(n-2), and dw = z dzeta / (1-g)
    in zeta = log z, so for 0 < g < 1 the cell is

        int_{log g}^0 [(sigma^2 + (1-z)^2)/z^2 + n-1]^(n/2) z^2 ((z-g)/(1-g))^(n-2) dzeta / (1-g).

    The integrand is analytic in |Im zeta| < pi/4 (entire at even n), so
    30 Gauss-Legendre nodes per zeta-panel of length at most 1 leave a rule
    error near (pi/2 + 1.86)^-60 = 1e-32 relative.
    """
    with mp.workdps(30):
        sigma, g = mp.mpf(sigma), mp.mpf(g)
        start = mp.log(g)
        count = int(mp.ceil(-start))
        width = -start / count
        terms = []
        for i in range(count):
            for x, weight in _gauss_legendre(30, mp.mp.prec):
                z = mp.exp(start + width * (i + x))
                terms.append(weight * ((sigma ** 2 + (1 - z) ** 2) / z ** 2 + n - 1)
                             ** (mp.mpf(n) / 2) * z ** 2 * ((z - g) / (1 - g)) ** (n - 2))
        return width * mp.fsum(terms) / (1 - g)


def jacobian_norms(phi, point):
    """|DH|, |DH^-1| and K_H of the cone map at one point, at 40 digits.

    DH(x, t) = (x, t lambda(s)) is the identity but for its last row, so
    DH is lower triangular with determinant D and its inverse is the
    identity but for the last row (-t lambda'(s) x/|x|, 1) / D.
    """
    n = len(point)
    with mp.workdps(40):
        x, t = [mp.mpf(float(c)) for c in point[:-1]], mp.mpf(float(point[-1]))
        rho = mp.sqrt(mp.fsum(c * c for c in x))
        s = rho + t
        value, g = jet(phi, -mp.log(s))
        lam, der = value / s, g * value / s
        t_lam_prime = t / s * (der - lam)       # t lambda'(s), lambda' = (phi' - lambda)/s
        det = lam + t_lam_prime
        row = [t_lam_prime * c / rho for c in x]
        D, D_inv = mp.eye(n), mp.eye(n)
        for i in range(n - 1):
            D[n - 1, i], D_inv[n - 1, i] = row[i], -row[i] / det
        D[n - 1, n - 1], D_inv[n - 1, n - 1] = det, 1 / det
        assert mp.mnorm(D * D_inv - mp.eye(n), 1) \
            <= mp.mpf(10) ** -35 * mp.mnorm(D, 1) * mp.mnorm(D_inv, 1)
        return mp.mnorm(D, "f"), mp.mnorm(D_inv, "f"), mp.mnorm(D_inv, "f") ** n * det


def segment_integral(phi, a, b):
    """int_0^1 phi'(|gamma a + (1-gamma) b|) d gamma at 30 digits.

    phi' = phi g / r.  The integral is split at the closest approach gamma*
    and at offsets 10^-k from it down to a tenth of c_min / |d|, the width
    of the peak there, so that no piece spans many scales of the kernel.
    """
    def kernel(r):
        return mp.fprod(jet(phi, -mp.log(r))) / r

    with mp.workdps(30):
        a, b = [mp.mpf(float(x)) for x in a], [mp.mpf(float(x)) for x in b]
        d = [x - y for x, y in zip(a, b)]
        dd = mp.fsum(x * x for x in d)
        if dd == 0:
            return kernel(mp.sqrt(mp.fsum(x * x for x in a)))
        g_star = min(max(-mp.fsum(x * y for x, y in zip(b, d)) / dd, 0), 1)
        c_min = mp.sqrt(mp.fsum((y + g_star * x) ** 2 for x, y in zip(d, b)))
        steps = [mp.mpf(10) ** -k for k in range(1, 40)
                 if mp.mpf(10) ** -k >= c_min / mp.sqrt(dd) / 10]
        points = sorted({mp.mpf(0), mp.mpf(1), g_star}
                        | {g_star + t for t in steps if g_star + t < 1}
                        | {g_star - t for t in steps if g_star - t > 0})
        return mp.quad(lambda gamma: kernel(mp.sqrt(mp.fsum(
            (gamma * x + (1 - gamma) * y) ** 2 for x, y in zip(a, b)))), points)
