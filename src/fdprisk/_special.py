"""The normal cdf, its inverse and log Gamma on Python floats: the Cephes
routines (Moshier, *Methods and Programs for Mathematical Functions*, 1989)
behind scipy.special's ``ndtr``, ``ndtri`` and ``gammaln``, step for step,
with the same bits. exp and log are the C library's, through ``math``, as in
Cephes (numpy's ufuncs round differently); Horner steps are unrolled on
literals, for calls well under a microsecond. ``elementwise`` maps a kernel
over an array, so each function has one implementation."""

from __future__ import annotations

import math
from math import exp, log

import numpy as np


def elementwise(kernel, a):
    """``kernel`` at every element of ``a``; at a 0-d input, kernel(float(a))."""
    a = np.asarray(a, dtype=float)
    if a.ndim == 0:
        return kernel(float(a))
    return np.array([kernel(v) for v in a.ravel().tolist()]).reshape(a.shape)


def _erf(x: float) -> float:
    """erf at |x| <= 1: Cephes' rational form in x^2."""
    z = x * x
    return x * ((((9.60497373987051638749e0 * z + 9.00260197203842689217e1)
                  * z + 2.23200534594684319226e3) * z + 7.00332514112805075473e3)
                * z + 5.55923013010394962768e4) / (
        ((((z + 3.35617141647503099647e1) * z + 5.21357949780152679795e2) * z
          + 4.59432382970980127987e3) * z + 2.26290000613890934246e4) * z
        + 4.92673942608635921086e4)


def ndtr(a: float) -> float:
    """Standard normal cdf Phi(a): Cephes ``ndtr``, with its erf and erfc."""
    x = a * 0.70710678118654752440  # sqrt(1/2)
    z = -x if x < 0.0 else x  # abs(x) without a call
    if z < 0.70710678118654752440:
        return 0.5 + 0.5 * _erf(x)
    if z < 1.0:
        y = 0.5 * (1.0 - _erf(z))
        return 1.0 - y if x > 0 else y
    e = -z * z  # erfc(z) = e^-z^2 p(z) / q(z), 0 past log(DBL_MAX)
    if e < -7.09782712893383996843e2:
        return 1.0 if x > 0 else 0.0
    if z < 8.0:
        p = ((((((((2.46196981473530512524e-10 * z + 5.64189564831068821977e-1)
                   * z + 7.46321056442269912687e0) * z + 4.86371970985681366614e1)
                 * z + 1.96520832956077098242e2) * z + 5.26445194995477358631e2)
               * z + 9.34528527171957607540e2) * z + 1.02755188689515710272e3)
             * z + 5.57535335369399327526e2)
        q = ((((((((z + 1.32281951154744992508e1) * z + 8.67072140885989742329e1)
                  * z + 3.54937778887819891062e2) * z + 9.75708501743205489753e2)
                * z + 1.82390916687909736289e3) * z + 2.24633760818710981792e3)
              * z + 1.65666309194161350182e3) * z + 5.57535340817727675546e2)
    else:
        p = (((((5.64189583547755073984e-1 * z + 1.27536670759978104416e0)
                * z + 5.01905042251180477414e0) * z + 6.16021097993053585195e0)
              * z + 7.40974269950448939160e0) * z + 2.97886665372100240670e0)
        q = ((((((z + 2.26052863220117276590e0) * z + 9.39603524938001434673e0)
                * z + 1.20489539808096656605e1) * z + 1.70814450747565897222e1)
              * z + 9.60896809063285878198e0) * z + 3.36907645100081516050e0)
    y = 0.5 * (exp(e) * p / q)
    return 1.0 - y if x > 0 else y


def log_ndtr(x: float) -> float:
    """log Phi(x) for x <= -37, where Phi(x) < 6e-300, from its asymptotic
    series -x^2/2 - log(-x sqrt(2 pi)) + log(1 - 1/x^2 + 3/x^4 - ...):
    the series' seventh term is below 1e-20 there."""
    if x > -37.0:
        raise ValueError(f"log_ndtr is for x <= -37, got {x!r}")
    t = 1.0 / (x * x)
    s = -t * (1 - 3*t * (1 - 5*t * (1 - 7*t * (1 - 9*t * (1 - 11*t)))))
    return -0.5 * x * x - log(-x) - 0.91893853320467274178 + math.log1p(s)


def ndtri(y0: float) -> float:
    """The x with Phi(x) = y0: Cephes ``ndtri``, rational forms in y near
    1/2 and in 1/sqrt(-2 log y) in the tails."""
    if not 0.0 < y0 < 1.0:  # 0, 1, outside [0, 1] or NaN
        return -math.inf if y0 == 0.0 else math.inf if y0 == 1.0 else math.nan
    upper = y0 > 1.0 - 0.13533528323661269189  # e^-2
    y = 1.0 - y0 if upper else y0
    if y > 0.13533528323661269189:
        y -= 0.5
        y2 = y * y
        x = y + y * (y2 * ((((-5.99633501014107895267e1 * y2
                              + 9.80010754185999661536e1) * y2
                             - 5.66762857469070293439e1) * y2
                            + 1.39312609387279679503e1) * y2
                           - 1.23916583867381258016e0) / (
            (((((((y2 + 1.95448858338141759834e0) * y2 + 4.67627912898881538453e0)
                 * y2 + 8.63602421390890590575e1) * y2 - 2.25462687854119370527e2)
               * y2 + 2.00260212380060660359e2) * y2 - 8.20372256168333339912e1)
             * y2 + 1.59056225126211695515e1) * y2 - 1.18331621121330003142e0))
        return x * 2.50662827463100050242e0  # sqrt(2 pi)
    x = math.sqrt(-2.0 * log(y))
    x0 = x - log(x) / x
    z = 1.0 / x
    if x < 8.0:  # y > e^-32
        p = ((((((((4.05544892305962419923e0 * z + 3.15251094599893866154e1)
                  * z + 5.71628192246421288162e1) * z + 4.40805073893200834700e1)
                * z + 1.46849561928858024014e1) * z + 2.18663306850790267539e0)
              * z - 1.40256079171354495875e-1) * z - 3.50424626827848203418e-2)
             * z - 8.57456785154685413611e-4)
        q = (((((((z + 1.57799883256466749731e1) * z + 4.53907635128879210584e1)
                 * z + 4.13172038254672030440e1) * z + 1.50425385692907503408e1)
               * z + 2.50464946208309415979e0) * z - 1.42182922854787788574e-1)
             * z - 3.80806407691578277194e-2) * z - 9.33259480895457427372e-4
    else:
        p = ((((((((3.23774891776946035970e0 * z + 6.91522889068984211695e0)
                  * z + 3.93881025292474443415e0) * z + 1.33303460815807542389e0)
                * z + 2.01485389549179081538e-1) * z + 1.23716634817820021358e-2)
              * z + 3.01581553508235416007e-4) * z + 2.65806974686737550832e-6)
             * z + 6.23974539184983293730e-9)
        q = (((((((z + 6.02427039364742014255e0) * z + 3.67983563856160859403e0)
                 * z + 1.37702099489081330271e0) * z + 2.16236993594496635890e-1)
               * z + 1.34204006088543189037e-2) * z + 3.28014464682127739104e-4)
             * z + 2.89247864745380683936e-6) * z + 6.79019408009981274425e-9
    x = x0 - z * p / q
    return x if upper else -x


def gammaln(x: float) -> float:
    """log Gamma(x) for x > 0: Cephes ``lgam``, a rational form on [2, 3]
    reached by the recurrence below 13, Stirling's series above."""
    if x <= 0.0:
        raise ValueError(f"gammaln is for x > 0, got {x!r}")
    if x < 13.0:
        z, p, u = 1.0, 0.0, x
        while u >= 3.0:
            p -= 1.0
            u = x + p
            z *= u
        while u < 2.0:
            z /= u
            p += 1.0
            u = x + p
        if u == 2.0:
            return log(z)
        x += p - 2.0
        return log(z) + x * (
            ((((-1.37825152569120859100e3 * x - 3.88016315134637840924e4) * x
               - 3.31612992738871184744e5) * x - 1.16237097492762307383e6)
             * x - 1.72173700820839662146e6) * x - 8.53555664245765465627e5) / (
            (((((x - 3.51815701436523470549e2) * x - 1.70642106651881159223e4)
               * x - 2.20528590553854454839e5) * x - 1.13933444367982507207e6)
             * x - 2.53252307177582951285e6) * x - 2.01889141433532773231e6)
    if x > 2.556348e305:
        return math.inf
    q = (x - 0.5) * log(x) - x + 0.91893853320467274178  # log sqrt(2 pi)
    if x > 1.0e8:
        return q
    p = 1.0 / (x * x)
    if x >= 1000.0:
        return q + ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3)
                    * p + 0.0833333333333333333333) / x
    return q + ((((8.11614167470508450300e-4 * p - 5.95061904284301438324e-4)
                  * p + 7.93650340457716943945e-4) * p
                 - 2.77777777730099687205e-3) * p + 8.33333333333331927722e-2) / x
