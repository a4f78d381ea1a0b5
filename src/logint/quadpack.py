"""QUADPACK's QAGS and QAGI, ported from the Fortran.

Piessens, de Doncker-Kapenga, Ueberhuber and Kahaner, *QUADPACK* (1983):

- `qags` is dqagse: adaptive bisection of [a, b] with the 21-point
  Gauss-Kronrod rule (dqk21), the subinterval list kept in descending
  order of error (dqpsrt), and Wynn's epsilon algorithm (dqelg) to
  extrapolate the sequence of partial sums;
- `qagi` is dqagie for the range (bound, +inf): the same driver on
  (0, 1], onto which x = bound + (1 - t)/t maps that range, with the
  15-point rule dqk15i.  dqagie's other two ranges, (-inf, bound) and the
  whole line, are left out: the oracle integrates over [a, inf) only.

The port keeps QUADPACK's order of evaluation and summation, its
constants and the machine constants of `sys.float_info` (d1mach), so it
returns the same value, error estimate, evaluation count and ier that
`scipy.integrate.quad(..., full_output=1)` returns, to the bit.  A
branch keeps the Fortran's comparison, negated where the Fortran jumps
past the code (`not (x > y)`, not `x <= y`), so a NaN takes the same
branch.  Two changes of form: dqagse and dqagie, whose drivers differ
only in their rule and interval, share one; and the integrand takes the
list of a rule's nodes, in the Fortran's order of evaluation, and
returns the list of values, so a rule costs one call of it.

This module depends on the standard library alone.
"""

from __future__ import annotations

import math
import sys
from typing import Callable, NamedTuple

EPMACH = sys.float_info.epsilon  # d1mach(4)
UFLOW = sys.float_info.min  # d1mach(1)
OFLOW = sys.float_info.max  # d1mach(2)
_NOISE = UFLOW / (50.0 * EPMACH)

# dqk21: the 21-point Kronrod nodes, and the weights of it and of the
# 10-point Gauss rule, whose nodes are the Kronrod nodes of even index.
_XGK21 = (
    0.995657163025808080735527280689003,
    0.973906528517171720077964012084452,
    0.930157491355708226001207180059508,
    0.865063366688984510732096688423493,
    0.780817726586416897063717578345042,
    0.679409568299024406234327365114874,
    0.562757134668604683339000099272694,
    0.433395394129247190799265943165784,
    0.294392862701460198131126603103866,
    0.148874338981631210884826001129720,
    0.000000000000000000000000000000000,
)
_WGK21 = (
    0.011694638867371874278064396062192,
    0.032558162307964727478818972459390,
    0.054755896574351996031381300244580,
    0.075039674810919952767043140916190,
    0.093125454583697605535065465083366,
    0.109387158802297641899210590325805,
    0.123491976262065851077208980186300,
    0.134709217311473325928054001771707,
    0.142775938577060080797094273138717,
    0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
# dqk21 evaluates the Gauss pairs (odd index) before the Kronrod-only
# ones: their nodes and weights in that order, and where each Kronrod
# index falls in it.
_PAIRS21 = (1, 3, 5, 7, 9, 0, 2, 4, 6, 8)
_XK21 = tuple(_XGK21[j] for j in _PAIRS21)
_WK21 = tuple(_WGK21[j] for j in _PAIRS21)
_ASC21 = tuple(_PAIRS21.index(j) for j in range(10))
_WG10 = (
    0.066671344308688137593568809893332,
    0.149451349150580593145776339657697,
    0.219086362515982043995534934228163,
    0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)

# dqk15i: the 15-point Kronrod rule and the 7-point Gauss rule inside it,
# whose weights are zero at the Kronrod-only nodes.
_XGK15 = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144845693013,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
)
_WGK15 = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
)
_WG7 = (
    0.0,
    0.129484966168869693270611432679082,
    0.0,
    0.279705391489276667901467771423780,
    0.0,
    0.381830050505118944950369775488975,
    0.0,
    0.417959183673469387755102040816327,
)


class QuadpackResult(NamedTuple):
    value: float
    abserr: float
    neval: int
    ier: int  # 0 converged; 1-5 QUADPACK's warnings; 6 invalid input


def _rule_error(resk, resg, hlgth, resabs, resasc):
    """The error estimate that ends dqk21 and dqk15i."""
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        # resasc * min(1, ratio**1.5), without the OverflowError that a
        # float power raises where Fortran's gives inf.
        ratio = 200.0 * abserr / resasc
        abserr = resasc * ratio**1.5 if ratio < 1.0 else resasc
    if resabs > _NOISE:
        abserr = max((EPMACH * 50.0) * resabs, abserr)
    return abserr


def _qk21(f, a, b):
    """dqk21: (result, abserr, resabs, resasc) of the 21-point rule."""
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    dhlgth = abs(hlgth)
    # f takes the nodes in one call, in dqk21's order: the centre, then
    # the Gauss pairs, then the Kronrod-only pairs.
    xs = [centr]
    for x in _XK21:
        absc = hlgth * x
        xs += (centr - absc, centr + absc)
    fx = f(xs)
    fv1 = fx[1::2]
    fv2 = fx[2::2]
    fc = fx[0]
    resg = 0.0
    resk = _WGK21[10] * fc
    resabs = abs(resk)
    for fval1, fval2, wg, wgk in zip(fv1, fv2, _WG10, _WK21):  # the Gauss pairs
        fsum = fval1 + fval2
        resg = resg + wg * fsum
        resk = resk + wgk * fsum
        resabs = resabs + wgk * (abs(fval1) + abs(fval2))
    for fval1, fval2, wgk in zip(fv1[5:], fv2[5:], _WK21[5:]):  # the Kronrod-only pairs
        fsum = fval1 + fval2
        resk = resk + wgk * fsum
        resabs = resabs + wgk * (abs(fval1) + abs(fval2))
    reskh = resk * 0.5
    resasc = _WGK21[10] * abs(fc - reskh)
    for i, wgk in zip(_ASC21, _WGK21):  # in the order of the Kronrod index
        resasc = resasc + wgk * (abs(fv1[i] - reskh) + abs(fv2[i] - reskh))
    result = resk * hlgth
    resabs = resabs * dhlgth
    resasc = resasc * dhlgth
    return result, _rule_error(resk, resg, hlgth, resabs, resasc), resabs, resasc


def _qk15i(f, boun, a, b):
    """dqk15i: the 15-point rule on [a, b] within (0, 1], for the range
    (boun, +inf)."""
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    # f takes the nodes in one call, in dqk15i's order, the centre first,
    # each mapped onto (boun, +inf).
    ts = [centr]
    for x in _XGK15[:7]:
        absc = hlgth * x
        ts += (centr - absc, centr + absc)
    fx = f([boun + (1.0 - t) / t for t in ts])
    fvals = [(fval / t) / t for fval, t in zip(fx, ts)]
    fv1 = fvals[1::2]
    fv2 = fvals[2::2]
    fc = fvals[0]
    resg = _WG7[7] * fc
    resk = _WGK15[7] * fc
    resabs = abs(resk)
    for fval1, fval2, wg, wgk in zip(fv1, fv2, _WG7, _WGK15):
        fsum = fval1 + fval2
        resg = resg + wg * fsum
        resk = resk + wgk * fsum
        resabs = resabs + wgk * (abs(fval1) + abs(fval2))
    reskh = resk * 0.5
    resasc = _WGK15[7] * abs(fc - reskh)
    for fval1, fval2, wgk in zip(fv1, fv2, _WGK15):
        resasc = resasc + wgk * (abs(fval1 - reskh) + abs(fval2 - reskh))
    result = resk * hlgth
    resasc = resasc * hlgth
    resabs = resabs * hlgth
    return result, _rule_error(resk, resg, hlgth, resabs, resasc), resabs, resasc


def _qpsrt(limit, last, maxerr, elist, iord, nrmax):
    """dqpsrt: keep iord(1..) in descending order of error and pick the
    subinterval to bisect next.  Returns (maxerr, errmax, nrmax)."""
    if last <= 2:
        iord[1] = 1
        iord[2] = 2
    else:
        errmax = elist[maxerr]
        # Only after a bisection raised the error does the insertion
        # start above the nrmax-th largest.
        for _ in range(nrmax - 1):
            isucc = iord[nrmax - 1]
            if errmax <= elist[isucc]:
                break
            iord[nrmax] = isucc
            nrmax -= 1
        # Only as many as can still be bisected are kept in order.
        jupbn = last
        if last > limit // 2 + 2:
            jupbn = limit + 3 - last
        errmin = elist[last]
        jbnd = jupbn - 1
        for i in range(nrmax + 1, jbnd + 1):
            isucc = iord[i]
            if errmax >= elist[isucc]:
                iord[i - 1] = maxerr  # insert errmin bottom-up
                k = jbnd
                for _ in range(i, jbnd + 1):
                    isucc = iord[k]
                    if errmin < elist[isucc]:
                        break
                    iord[k + 1] = isucc
                    k -= 1
                else:
                    iord[i] = last
                    break
                iord[k + 1] = last
                break
            iord[i - 1] = isucc
        else:
            iord[jbnd] = maxerr
            iord[jupbn] = last
    maxerr = iord[nrmax]
    return maxerr, elist[maxerr], nrmax


def _qelg(n, epstab, res3la, nres):
    """dqelg: one step of Wynn's epsilon algorithm on epstab(1..n).
    Returns (n, result, abserr, nres); epstab and res3la change in place."""
    nres += 1
    abserr = OFLOW
    result = epstab[n]
    if n >= 3:
        limexp = 50
        epstab[n + 2] = epstab[n]
        newelm = (n - 1) // 2
        epstab[n] = OFLOW
        num = n
        k1 = n
        for i in range(1, newelm + 1):
            k2 = k1 - 1
            k3 = k1 - 2
            res = epstab[k1 + 2]
            e0 = epstab[k3]
            e1 = epstab[k2]
            e2 = res
            e1abs = abs(e1)
            delta2 = e2 - e1
            err2 = abs(delta2)
            tol2 = max(abs(e2), e1abs) * EPMACH
            delta3 = e1 - e0
            err3 = abs(delta3)
            tol3 = max(e1abs, abs(e0)) * EPMACH
            if not (err2 > tol2 or err3 > tol3):
                # e0, e1 and e2 agree to machine accuracy: converged.
                result = res
                abserr = err2 + err3
                return n, result, max(abserr, 5.0 * EPMACH * abs(result)), nres
            e3 = epstab[k1]
            epstab[k1] = e1
            delta1 = e1 - e3
            err1 = abs(delta1)
            tol1 = max(e1abs, abs(e3)) * EPMACH
            # Two elements too close, or irregular behaviour: drop the
            # part of the table from here on.
            if err1 <= tol1 or err2 <= tol2 or err3 <= tol3:
                n = i + i - 1
                break
            ss = 1.0 / delta1 + 1.0 / delta2 - 1.0 / delta3
            epsinf = abs(ss * e1)
            if not epsinf > 1e-4:
                n = i + i - 1
                break
            res = e1 + 1.0 / ss
            epstab[k1] = res
            k1 = k1 - 2
            error = err2 + abs(res - e2) + err3
            if not error > abserr:
                abserr = error
                result = res
        # Shift the table.
        if n == limexp:
            n = 2 * (limexp // 2) - 1
        ib = 2 if num % 2 == 0 else 1
        for _ in range(newelm + 1):
            epstab[ib] = epstab[ib + 2]
            ib += 2
        if num != n:
            indx = num - n + 1
            for i in range(1, n + 1):
                epstab[i] = epstab[indx]
                indx += 1
        if nres < 4:
            res3la[nres] = result
            abserr = OFLOW
        else:
            abserr = (
                abs(result - res3la[3])
                + abs(result - res3la[2])
                + abs(result - res3la[1])
            )
            res3la[1] = res3la[2]
            res3la[2] = res3la[3]
            res3la[3] = result
    return n, result, max(abserr, 5.0 * EPMACH * abs(result)), nres


def _ieee_div(x, y):
    """x / y with Fortran's result, not Python's exception, at y = 0."""
    if y != 0.0:
        return x / y
    if x == 0.0 or math.isnan(x):
        return math.nan
    return math.copysign(math.inf, x) * math.copysign(1.0, y)


def _bisect_and_extrapolate(rule, a, b, epsabs, epsrel, limit):
    """The driver of dqagse and dqagie.  rule(lo, hi) returns (result,
    abserr, resabs, resasc) on [lo, hi].  Returns (result, abserr, last,
    ier), last being the number of subintervals."""
    # First approximation to the integral.  As in dqagse, defabs is the
    # rule's resabs and resabs its resasc.
    result, abserr, defabs, resabs = rule(a, b)
    dres = abs(result)
    errbnd = max(epsabs, epsrel * dres)
    last = 1
    ier = 0
    if abserr <= 100.0 * EPMACH * defabs and abserr > errbnd:
        ier = 2
    if limit == 1:
        ier = 1
    if ier != 0 or (abserr <= errbnd and abserr != resabs) or abserr == 0.0:
        return result, abserr, last, ier

    # Lists indexed from 1, as in the Fortran.
    alist = [0.0] * (limit + 1)
    blist = [0.0] * (limit + 1)
    rlist = [0.0] * (limit + 1)
    elist = [0.0] * (limit + 1)
    iord = [0] * (limit + 1)
    rlist2 = [0.0] * 53
    res3la = [0.0] * 4
    alist[1] = a
    blist[1] = b
    rlist[1] = result
    elist[1] = abserr
    iord[1] = 1
    rlist2[1] = result
    errmax = abserr
    maxerr = 1
    area = result
    errsum = abserr
    abserr = OFLOW
    nrmax = 1
    nres = 0
    numrl2 = 2
    ktmin = 0
    extrap = False
    noext = False
    ierro = 0
    iroff1 = iroff2 = iroff3 = 0
    correc = small = erlarg = ertest = 0.0
    ksgn = 1 if dres >= (1.0 - 50.0 * EPMACH) * defabs else -1

    sum_up = False  # the result is the sum of rlist (Fortran label 115)
    for last in range(2, limit + 1):
        # Bisect the subinterval with the nrmax-th largest error.
        a1 = alist[maxerr]
        b1 = 0.5 * (alist[maxerr] + blist[maxerr])
        a2 = b1
        b2 = blist[maxerr]
        erlast = errmax
        area1, error1, _, defab1 = rule(a1, b1)
        area2, error2, _, defab2 = rule(a2, b2)

        area12 = area1 + area2
        erro12 = error1 + error2
        errsum = errsum + erro12 - errmax
        area = area + area12 - rlist[maxerr]
        if not (defab1 == error1 or defab2 == error2):
            if not (
                abs(rlist[maxerr] - area12) > 1e-5 * abs(area12)
                or erro12 < 0.99 * errmax
            ):
                if extrap:
                    iroff2 += 1
                else:
                    iroff1 += 1
            if last > 10 and erro12 > errmax:
                iroff3 += 1
        rlist[maxerr] = area1
        rlist[last] = area2
        errbnd = max(epsabs, epsrel * abs(area))

        # Roundoff, the subinterval limit, and bad integrand behaviour
        # at a point of the range.
        if iroff1 + iroff2 >= 10 or iroff3 >= 20:
            ier = 2
        if iroff2 >= 5:
            ierro = 3
        if last == limit:
            ier = 1
        if max(abs(a1), abs(b2)) <= (1.0 + 100.0 * EPMACH) * (abs(a2) + 1000.0 * UFLOW):
            ier = 4

        # Append the new subintervals to the list.
        if error2 > error1:
            alist[maxerr] = a2
            alist[last] = a1
            blist[last] = b1
            rlist[maxerr] = area2
            rlist[last] = area1
            elist[maxerr] = error2
            elist[last] = error1
        else:
            alist[last] = a2
            blist[maxerr] = b1
            blist[last] = b2
            elist[maxerr] = error1
            elist[last] = error2
        maxerr, errmax, nrmax = _qpsrt(limit, last, maxerr, elist, iord, nrmax)

        if errsum <= errbnd:
            sum_up = True
            break
        if ier != 0:
            break
        if last == 2:
            small = abs(b - a) * 0.375
            erlarg = errsum
            ertest = errbnd
            rlist2[2] = area
            continue
        if noext:
            continue
        erlarg = erlarg - erlast
        if abs(b1 - a1) > small:
            erlarg = erlarg + erro12
        if not extrap:
            # Is the interval to be bisected next the smallest one?
            if abs(blist[maxerr] - alist[maxerr]) > small:
                continue
            extrap = True
            nrmax = 2
        if not (ierro == 3 or erlarg <= ertest):
            # The smallest interval has the largest error: before
            # bisecting, work down the larger intervals.
            jupbnd = last
            if last > 2 + limit // 2:
                jupbnd = limit + 3 - last
            larger = False
            for _ in range(nrmax, jupbnd + 1):
                maxerr = iord[nrmax]
                errmax = elist[maxerr]
                if abs(blist[maxerr] - alist[maxerr]) > small:
                    larger = True
                    break
                nrmax += 1
            if larger:
                continue

        # Extrapolate.
        numrl2 += 1
        rlist2[numrl2] = area
        numrl2, reseps, abseps, nres = _qelg(numrl2, rlist2, res3la, nres)
        ktmin += 1
        if ktmin > 5 and abserr < 1e-3 * errsum:
            ier = 5
        if not abseps >= abserr:
            ktmin = 0
            abserr = abseps
            result = reseps
            correc = erlarg
            ertest = max(epsabs, epsrel * abs(reseps))
            if abserr <= ertest:
                break

        # Prepare to bisect the smallest interval.
        if numrl2 == 1:
            noext = True
        if ier == 5:
            break
        maxerr = iord[1]
        errmax = elist[maxerr]
        nrmax = 1
        extrap = False
        small = small * 0.5
        erlarg = errsum

    # The final result and error estimate.
    if not sum_up and abserr == OFLOW:
        sum_up = True
    if not sum_up:
        test_divergence = True
        if ier + ierro != 0:
            if ierro == 3:
                abserr = abserr + correc
            if ier == 0:
                ier = 3
            if result != 0.0 and area != 0.0:
                sum_up = abserr / abs(result) > errsum / abs(area)
            elif abserr > errsum:
                sum_up = True
            elif area == 0.0:
                test_divergence = False
        if not sum_up and test_divergence:
            if not (ksgn == -1 and max(abs(result), abs(area)) <= defabs * 0.01):
                ratio = _ieee_div(result, area)
                if 0.01 > ratio or ratio > 100.0 or errsum > abs(area):
                    ier = 6
    if sum_up:
        result = 0.0
        for k in range(1, last + 1):
            result = result + rlist[k]
        abserr = errsum
    if ier > 2:
        ier -= 1
    return result, abserr, last, ier


def _invalid(epsabs, epsrel, limit):
    """QUADPACK's ier = 6: no subinterval allowed, or a tolerance that
    cannot be met."""
    return limit < 1 or (epsabs <= 0.0 and epsrel < max(50.0 * EPMACH, 0.5e-28))


def qags(
    f: Callable[[list[float]], list[float]],
    a: float,
    b: float,
    *,
    epsabs: float,
    epsrel: float,
    limit: int,
) -> QuadpackResult:
    """dqagse: integrate f over the finite range [a, b] to within
    max(epsabs, epsrel * |value|), with at most `limit` subintervals.
    f maps a list of nodes to the list of the integrand's values."""
    if _invalid(epsabs, epsrel, limit):
        return QuadpackResult(0.0, 0.0, 0, 6)
    result, abserr, last, ier = _bisect_and_extrapolate(
        lambda lo, hi: _qk21(f, lo, hi), a, b, epsabs, epsrel, limit
    )
    return QuadpackResult(result, abserr, 42 * last - 21, ier)


def qagi(
    f: Callable[[list[float]], list[float]],
    bound: float,
    *,
    epsabs: float,
    epsrel: float,
    limit: int,
) -> QuadpackResult:
    """dqagie with inf = 1: integrate f over (bound, +inf) to within
    max(epsabs, epsrel * |value|), with at most `limit` subintervals.
    f maps a list of nodes to the list of the integrand's values."""
    if _invalid(epsabs, epsrel, limit):
        return QuadpackResult(0.0, 0.0, 0, 6)
    result, abserr, last, ier = _bisect_and_extrapolate(
        lambda lo, hi: _qk15i(f, bound, lo, hi), 0.0, 1.0, epsabs, epsrel, limit
    )
    return QuadpackResult(result, abserr, 30 * last - 15, ier)
