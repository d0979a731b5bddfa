"""End state of an adaptive Dormand-Prince 8(5,3) integration (DOP853).

``dop853`` integrates y' = fun(t, y) from t = 0 to t_bound > 0 and returns
only the end state, with no dense output. It follows scipy 1.17.1's DOP853
solver (``_ivp/rk.py`` and ``_ivp/common.py``) operation for operation: the
same first-step estimate (``select_initial_step``), Runge-Kutta step
(``rk_step``), error norm (DOP853's ``_estimate_error_norm``) and step-size
control, on numpy arrays of the same shapes, so the end state, the number of
right-hand sides and the outcome keep the bits of that solver. The method is
Hairer, Norsett & Wanner, *Solving Ordinary Differential Equations I* (1993),
Sec. II.5 and II.10.

The tableau holds the 12 stages a step uses; the extended stages that only
the dense output needs are left out. The coefficients are those of scipy's
``_ivp/dop853_coefficients.py``, after Hairer's DOP853 code. That file and
the steps followed here are Copyright (c) 2001-2002 Enthought, Inc. 2003,
SciPy Developers, under the BSD-3-Clause license.
"""

from __future__ import annotations

import math

import numpy as np

# step-size control
SAFETY = 0.9  # multiplies the asymptotic step-size estimate
MIN_FACTOR = 0.2  # smallest decrease of a step
MAX_FACTOR = 10  # largest increase of a step
ERROR_ORDER = 7  # order of the error estimator
ERROR_EXPONENT = -1 / (ERROR_ORDER + 1)
TOO_SMALL_STEP = "Required step size is less than spacing between numbers."

N_STAGES = 12
C = np.array([
    0.0,
    0.526001519587677318785587544488e-01,
    0.789002279381515978178381316732e-01,
    0.118350341907227396726757197510,
    0.281649658092772603273242802490,
    0.333333333333333333333333333333,
    0.25,
    0.307692307692307692307692307692,
    0.651282051282051282051282051282,
    0.6,
    0.857142857142857142857142857142,
    1.0,
])

# row s < 12 combines stages 0..s-1 into stage s; row 12 is B, the weights
# of the 8th-order solution
A = np.zeros((N_STAGES + 1, N_STAGES))
A[1, 0] = 5.26001519587677318785587544488e-2

A[2, 0] = 1.97250569845378994544595329183e-2
A[2, 1] = 5.91751709536136983633785987549e-2

A[3, 0] = 2.95875854768068491816892993775e-2
A[3, 2] = 8.87627564304205475450678981324e-2

A[4, 0] = 2.41365134159266685502369798665e-1
A[4, 2] = -8.84549479328286085344864962717e-1
A[4, 3] = 9.24834003261792003115737966543e-1

A[5, 0] = 3.7037037037037037037037037037e-2
A[5, 3] = 1.70828608729473871279604482173e-1
A[5, 4] = 1.25467687566822425016691814123e-1

A[6, 0] = 3.7109375e-2
A[6, 3] = 1.70252211019544039314978060272e-1
A[6, 4] = 6.02165389804559606850219397283e-2
A[6, 5] = -1.7578125e-2

A[7, 0] = 3.70920001185047927108779319836e-2
A[7, 3] = 1.70383925712239993810214054705e-1
A[7, 4] = 1.07262030446373284651809199168e-1
A[7, 5] = -1.53194377486244017527936158236e-2
A[7, 6] = 8.27378916381402288758473766002e-3

A[8, 0] = 6.24110958716075717114429577812e-1
A[8, 3] = -3.36089262944694129406857109825
A[8, 4] = -8.68219346841726006818189891453e-1
A[8, 5] = 2.75920996994467083049415600797e1
A[8, 6] = 2.01540675504778934086186788979e1
A[8, 7] = -4.34898841810699588477366255144e1

A[9, 0] = 4.77662536438264365890433908527e-1
A[9, 3] = -2.48811461997166764192642586468
A[9, 4] = -5.90290826836842996371446475743e-1
A[9, 5] = 2.12300514481811942347288949897e1
A[9, 6] = 1.52792336328824235832596922938e1
A[9, 7] = -3.32882109689848629194453265587e1
A[9, 8] = -2.03312017085086261358222928593e-2

A[10, 0] = -9.3714243008598732571704021658e-1
A[10, 3] = 5.18637242884406370830023853209
A[10, 4] = 1.09143734899672957818500254654
A[10, 5] = -8.14978701074692612513997267357
A[10, 6] = -1.85200656599969598641566180701e1
A[10, 7] = 2.27394870993505042818970056734e1
A[10, 8] = 2.49360555267965238987089396762
A[10, 9] = -3.0467644718982195003823669022

A[11, 0] = 2.27331014751653820792359768449
A[11, 3] = -1.05344954667372501984066689879e1
A[11, 4] = -2.00087205822486249909675718444
A[11, 5] = -1.79589318631187989172765950534e1
A[11, 6] = 2.79488845294199600508499808837e1
A[11, 7] = -2.85899827713502369474065508674
A[11, 8] = -8.87285693353062954433549289258
A[11, 9] = 1.23605671757943030647266201528e1
A[11, 10] = 6.43392746015763530355970484046e-1

A[12, 0] = 5.42937341165687622380535766363e-2
A[12, 5] = 4.45031289275240888144113950566
A[12, 6] = 1.89151789931450038304281599044
A[12, 7] = -5.8012039600105847814672114227
A[12, 8] = 3.1116436695781989440891606237e-1
A[12, 9] = -1.52160949662516078556178806805e-1
A[12, 10] = 2.01365400804030348374776537501e-1
A[12, 11] = 4.47106157277725905176885569043e-2

B = A[N_STAGES]

# error estimators of orders 3 and 5, over the 12 stages and f at the new point
E3 = np.zeros(N_STAGES + 1)
E3[:-1] = B
E3[0] -= 0.244094488188976377952755905512
E3[8] -= 0.733846688281611857341361741547
E3[11] -= 0.220588235294117647058823529412e-1

E5 = np.zeros(N_STAGES + 1)
E5[0] = 0.1312004499419488073250102996e-1
E5[5] = -0.1225156446376204440720569753e+1
E5[6] = -0.4957589496572501915214079952
E5[7] = 0.1664377182454986536961530415e+1
E5[8] = -0.3503288487499736816886487290
E5[9] = 0.3341791187130174790297318841
E5[10] = 0.8192320648511571246570742613e-1
E5[11] = -0.2235530786388629525884427845e-1


def _rms(x: np.ndarray):
    """Root mean square of the entries of x."""
    return np.linalg.norm(x) / x.size ** 0.5


def _initial_step(fun, y0, f0, t_bound, rtol, atol):
    """The first step size, from y0, f0 = fun(0, y0) and one more right-hand side."""
    scale = atol + np.abs(y0) * rtol
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, t_bound)
    f1 = np.asarray(fun(h0, y0 + h0 * f0), dtype=float)
    d2 = _rms((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / (ERROR_ORDER + 1))
    return min(100 * h0, h1, t_bound)


def _error_norm(K: np.ndarray, h, scale: np.ndarray):
    """RMS norm of the 8th-order step's error, the 5th-order estimate damped
    by the 3rd-order one."""
    err5 = np.dot(K.T, E5) / scale
    err3 = np.dot(K.T, E3) / scale
    err5_norm_2 = np.linalg.norm(err5) ** 2
    err3_norm_2 = np.linalg.norm(err3) ** 2
    if err5_norm_2 == 0 and err3_norm_2 == 0:
        return 0.0
    denom = err5_norm_2 + 0.01 * err3_norm_2
    return np.abs(h) * err5_norm_2 / np.sqrt(denom * len(scale))


def dop853(fun, y0, t_bound: float, rtol: float, atol: float):
    """Integrate y' = fun(t, y) on [0, t_bound], t_bound > 0, from the 1-D state y0.

    Returns (y, nfev, failure): the state at t_bound, or at the last accepted
    step if the integration failed; the number of ``fun`` calls; and None,
    or the reason the integration stopped short (a step smaller than 10
    spacings of t). ``fun`` may return any sequence of floats.
    """
    t, y = 0.0, np.asarray(y0, dtype=float)
    f = np.asarray(fun(t, y), dtype=float)
    h_abs = _initial_step(fun, y, f, t_bound, rtol, atol)
    nfev = 2
    K = np.empty((N_STAGES + 1, y.size))
    # K[:s].T for s = 1..N_STAGES: the stages a new stage combines
    done = [K[:s].T for s in range(1, N_STAGES + 1)]
    while t < t_bound:
        min_step = 10 * abs(math.nextafter(t, math.inf) - t)
        if h_abs < min_step:
            h_abs = min_step
        rejected = False
        while True:
            if h_abs < min_step:
                return y, nfev, TOO_SMALL_STEP
            t_new = t + h_abs
            if t_new - t_bound > 0:
                t_new = t_bound
            h = t_new - t
            h_abs = np.abs(h)

            K[0] = f
            for s in range(1, N_STAGES):
                dy = np.dot(done[s - 1], A[s, :s]) * h
                K[s] = fun(t + C[s] * h, y + dy)
            y_new = y + h * np.dot(done[-1], B)
            f_new = np.asarray(fun(t + h, y_new), dtype=float)
            K[-1] = f_new
            nfev += N_STAGES

            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            error_norm = _error_norm(K, h, scale)
            if error_norm < 1:
                if error_norm == 0:
                    factor = MAX_FACTOR
                else:
                    factor = min(MAX_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
                if rejected:
                    factor = min(1, factor)
                h_abs *= factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
            rejected = True
        t, y, f = t_new, y_new, f_new
    return y, nfev, None
