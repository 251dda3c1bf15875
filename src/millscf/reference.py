"""High-accuracy reference values for the Mills ratios.

Everything here is deliberately written from scratch rather than on top of
cf, gauss or gamma, so a bug in the evaluation engine cannot cancel against
the same bug in the check.  Two independent routes per quantity:

  Gaussian: entire-series summation for small x, and a deep classic fraction
  with a proven per-depth error bound for x >= 1.  The branches overlap on
  [1, 4] and are tested against each other there.  The bound
  d!/(B_d B_{d+1}) on the depth-d convergent is carried from level to level
  by one multiply, bound_d = bound_{d-1} d B_{d-1}/B_{d+1}; the ratio is
  taken before a level's power-of-two rescale, so the scale cancels and
  certification takes no logarithm.

  Gamma: below x = s + 1 the lower series,
  M_s(x) = exp((1-s) ln x + x + lgamma(s)) - sum_{k>=1} x^k/(s(s+1)...(s+k-1)),
  and from x = s + 1 on Legendre's contracted fraction
  x/(x + 1 - s + 1(s-1)/(x + 3 - s + 2(s-2)/(x + 5 - s + ...))), its
  denominator evaluated by modified Lentz (Press et al., Numerical Recipes,
  section 6.2).  At s = 1 the fraction's first numerator is 0, so it is
  x/x = 1 exactly; it answers there below x = 2 too, where the series would
  round.  For x >= 1 either value is cross-checked, to 1e-7, against
  Simpson quadrature of the tail integral integral_0^inf (1 + u/x)^(s-1)
  e^(-u) du, cut off where the rest of the integral is negligible.

reference_mills takes one x; reference_mills_grid takes a 1-D array and
runs the same two branches with the same stopping and certification rules
over all of it at once, for the grid scans and tables.  numpy is imported
by the array routes only, so a single point never loads it.

The depth the bound certifies depends on x alone.  Depth d is certified
once q_d(x) = d!/(B_d A_{d+1}), the bound over the running convergent, is
at most 1e-15.  B_d and A_{d+1} are polynomials in x with positive
coefficients, so q_d falls as x grows and crosses 1e-15 at one point b_d.
The crossings b_1 > b_2 > ... > b_343, at least 0.15 % apart, are committed
in _BREAKS (b_1 = 1/sqrt(1e-15), b_343 ~ 0.99928), and the depth at x is
one more than the number of b_d above x: one bisect on the scalar route,
one searchsorted on the grid route, then the backward fold at that depth.
Within a relative 1e-10 of a breakpoint, and below b_343, the forward pass
_certify picks the depth instead.  Outside that margin the two pick the
same depth, so every value has the bits of the forward pass:

  - tests/test_reference.py checks at 30 digits, for every d, that
    q_d > 1e-15 (1 + 1e-11) at the margin's lower edge b_d (1 - 1e-10) and
    q_d < 1e-15 (1 - 1e-11) at its upper edge b_d (1 + 1e-10), and that
    the b_d fall strictly; its _scan_breaks rebuilds the table;
  - by monotonicity, at an x outside every margin q_d(x) is past 1e-15 by
    a factor 1 +- 1e-11 for every d;
  - the computed test bound <= 1e-15 (A/B) carries at most about (7d + 4)u
    of rounding (2.7e-13 at d = 343), since every term of the recurrences
    is positive and the rescales are exact, so it decides as q_d does.

Every point meets the same IEEE operations on either route, so the two
give the same bits.
"""

import math
from bisect import bisect_right
from functools import lru_cache


class OracleError(RuntimeError):
    """A reference value could not be certified."""


_SQRT_TWO_PI = math.sqrt(2.0 * math.pi)
_BIG = 2.0 ** 500
_SHRINK = 2.0 ** -512


def _phi(x):
    return math.exp(-0.5 * x * x) / _SQRT_TWO_PI


def _mills_series(x, tol=1e-18, cap=200):
    # c_0 = sqrt(pi/2), c_1 = -1, c_{k+1} = c_{k-1}/(k+1); entire in x
    c_prev = math.sqrt(0.5 * math.pi)
    c_cur = -1.0
    total = c_prev
    xk = x
    k = 1
    while k < cap:
        term = c_cur * xk
        total += term
        if abs(term) < tol:
            return total
        c_prev, c_cur = c_cur, c_prev / (k + 1.0)
        xk *= x
        k += 1
    raise OracleError(f"series for R({x}) still moving after {cap} terms")


def _mills_series_grid(x, tol=1e-18, cap=200):
    """_mills_series on an array: each element stops at its own first small term."""
    import numpy as np

    out = np.empty_like(x)
    idx = np.arange(x.size)
    c_prev = math.sqrt(0.5 * math.pi)
    c_cur = -1.0
    total = np.full_like(x, c_prev)
    xk = x.copy()
    k = 1
    while k < cap:
        term = c_cur * xk
        total += term
        done = np.abs(term) < tol
        out[idx[done]] = total[done]
        keep = ~done
        if not keep.any():
            return out
        idx, x, xk, total = idx[keep], x[keep], xk[keep], total[keep]
        c_prev, c_cur = c_cur, c_prev / (k + 1.0)
        xk *= x
        k += 1
    raise OracleError(f"series for R({x[0]}) still moving after {cap} terms")


# the certified error relative to R(x) on the fraction branch
_REL_TOL = 1e-15


def _depth_one(x):
    # the depth-1 bound 1/(x (x^2 + 1)) is under _REL_TOL times the depth-2
    # convergent x/(x^2 + 1) exactly when _REL_TOL x^2 >= 1; there the value
    # is 1/x with no recursion, which would overflow once x passes about 2^512
    return x >= (1.0 / _REL_TOL) ** 0.5


def _certify(x, max_depth):
    """The forward pass of the classic fraction at x from level 1.

    Returns the first depth (below max_depth) whose carried bound is at
    most _REL_TOL times the running convergent A/B, as an int, or None.
    The level is carried as a float, so every product d A_{d-1} and
    d B_{d-1} is float-float; a double holds each level exactly, so the
    products are the same doubles as with an int level.
    """
    B_prev, A, A_prev = x, x, 1.0     # B_1, A_2, A_1
    B = x * x + 1.0                   # B_2
    bound = 1.0 / (x * B)
    d, top = 1.0, float(max_depth)
    while d < top:
        if bound <= _REL_TOL * (A / B):
            return int(d)
        d += 1.0
        A, A_prev = x * A + d * A_prev, A
        dB = d * B_prev
        B_next = x * B + dB
        bound *= dB / B_next
        B, B_prev = B_next, B
        # only B is watched: for x >= 1 every convergent A/B is at most
        # 1/x <= 1, so A passes 2^500 only after B has (on the branch
        # checks' [0.5, 1) A/B has settled below 1 by then, so the rescales
        # fall on the same levels as when A was watched too)
        if B > _BIG:
            A *= _SHRINK
            B *= _SHRINK
            A_prev *= _SHRINK
            B_prev *= _SHRINK
    return None


# b_d for d = 1 ... 343: where q_d(x) = d!/(B_d A_{d+1}) crosses _REL_TOL,
# the nearest doubles to the crossings of a 40-digit scan.  The depth _certify
# picks at x is one more than the number of b_d above x, wherever x is
# outside every breakpoint's margin (see the module docstring)
_BREAKS = (
    31622776.60168379, 6687.402937613061, 426.2738469905997,
    111.5477921561654, 50.99386569428328, 30.674119465764957,
    21.513575402185413, 16.5680349530088, 13.556270838738802,
    11.558158297335616, 10.145473897992353, 9.096758840861074,
    8.287818662431137, 7.644379485446235, 7.11963521739181,
    6.68277902456339, 6.312777138084056, 5.994811537464805,
    5.718157114086897, 5.474866385293185, 5.258927405347724,
    5.065708843870808, 4.891584815559485, 4.7336753677249295,
    4.589663245876623, 4.457662097363008, 4.336120067922851,
    4.223748201087285, 4.11946651208362, 4.0223628509376965,
    3.9316611509399584, 3.8466966544838117, 3.7668963886572233,
    3.6917636348523857, 3.6208654685431143, 3.55382268185254,
    3.4903015720776382, 3.430007203733471, 3.3726778433826756,
    3.318080334792732, 3.26600623327617, 3.216268556972869,
    3.1686990425752075, 3.1231458159125998, 3.079471405599687,
    3.0375510418567524, 2.997271193552131, 2.9585283051804,
    2.9212277023922257, 2.8852826402215657, 2.8506134726106143,
    2.8171469254399253, 2.784815458206508, 2.7535567018925886,
    2.7233129625388957, 2.69403078166221, 2.665660546003728,
    2.6381561402147233, 2.61147463702096, 2.585576020190603,
    2.560422936289027, 2.5359804717595447, 2.5122159523393943,
    2.4890987622196366, 2.4666001806976934, 2.4446932343617087,
    2.4233525630947357, 2.402554298400404, 2.38227595273575,
    2.3624963186957384, 2.343195377031477, 2.324354212603393,
    2.305954937474347, 2.2879806204379878, 2.27041522235662,
    2.2532435367518695, 2.2364511351520253, 2.220024316753134,
    2.20395006199778, 2.188215989716786, 2.1728103175155846,
    2.15772182511932, 2.1429398204193832, 2.128454107989532,
    2.114254959862369, 2.100333088377126, 2.0866796209276863,
    2.0732860764558514, 2.060144343549258, 2.0472466600162336,
    2.0345855938214576, 2.022154025276694, 2.0099451303902147,
    1.9979523652869677, 1.9861694516191486, 1.974590362893698,
    1.9632093116494715, 1.9520207374224359, 1.9410192954423588,
    1.9301998460090712, 1.919557444500592, 1.9090873319692223,
    1.8987849262851901, 1.8886458137906021, 1.8786657414293466,
    1.8688406093212284, 1.8591664637510341, 1.8496394905454236,
    1.8402560088125783, 1.8310124650213664, 1.8219054273985085,
    1.8129315806237616, 1.8040877208045922, 1.7953707507131083,
    1.7867776752692488, 1.77830559725533, 1.7699517132480902,
    1.7617133097553122, 1.7535877595449911, 1.7455725181558097,
    1.7376651205784488, 1.729863178097938, 1.7221643752879017,
    1.7145664671481466, 1.7070672763775883, 1.699664690775022,
    1.692356660760724, 1.6851411970123025, 1.678016368208631,
    1.6709802988760774, 1.6640311673315964, 1.6571672037175813,
    1.6503866881236802, 1.6436879487910678, 1.6370693603949331,
    1.630529342401188, 1.6240663574936425, 1.6176789100681022,
    1.6113655447900523, 1.605124845212781, 1.5989554324529758,
    1.5928559639209854, 1.5868251321031108, 1.580861663393417,
    1.5749643169727114, 1.5691318837324526, 1.5633631852414789,
    1.5576570727535588, 1.5520124262538721, 1.5464281535426314,
    1.540903189354146, 1.5354364945097214, 1.5300270551028716,
    1.5246738817153938, 1.5193760086629409, 1.5141324932687839,
    1.5089424151645319, 1.5038048756166342, 1.4987189968775494,
    1.4936839215605227, 1.4886988120369626, 1.4837628498554574,
    1.478875235181521, 1.4740351862572023, 1.4692419388797242,
    1.464494745898376, 1.4597928767289, 1.4551356168846645,
    1.4505222675239389, 1.4459521450126223, 1.4414245805018073,
    1.4369389195195883, 1.4324945215765472, 1.428090759784384,
    1.4237270204871735, 1.419402702904758, 1.415117218787811,
    1.4108699920841161, 1.4066604586156408, 1.4024880657659893,
    1.3983522721778459, 1.3942525474600318, 1.3901883719038193,
    1.3861592362081556, 1.3821646412134723, 1.3782040976437626,
    1.3742771258566246, 1.3703832556009836, 1.366522025782214,
    1.3626929842343964, 1.3588956874994573, 1.3551297006129417,
    1.3513945968961902, 1.3476899577546935, 1.3440153724824064,
    1.3403704380718198, 1.336754759029584, 1.333167947197501,
    1.3296096215786948, 1.3260794081687892, 1.3225769397919198,
    1.3191018559414196, 1.3156538026250215, 1.3122324322144263,
    1.3088374032990915, 1.3054683805441036, 1.302125034551998,
    1.2988070417283966, 1.295514084151344, 1.2922458494442155,
    1.2890020306520897, 1.2857823261214671, 1.2825864393832354,
    1.2794140790387731, 1.276264958649096, 1.273138796626948,
    1.2700353161317477, 1.2669542449672977, 1.2638953154821768,
    1.2608582644727258, 1.2578428330885532, 1.254848766740481,
    1.2518758150108567, 1.2489237315661588, 1.245992274071833,
    1.243081204109282, 1.2401902870949537, 1.2373192922014615,
    1.234467992280677, 1.2316361637887365, 1.2288235867129091,
    1.226030044500265, 1.2232553239881, 1.2204992153360583,
    1.2177615119599106, 1.2150420104669342, 1.2123405105928564,
    1.20965681514031, 1.2069907299187628, 1.204342063685877,
    1.201710628090261, 1.1990962376155714, 1.1964987095259312,
    1.1939178638126249, 1.1913535231420371, 1.1888055128048,
    1.186273660666117, 1.1837577971172286, 1.1812577550279935,
    1.1787733697005505, 1.1763044788240355, 1.173850922430324,
    1.17141254285077, 1.1689891846739195, 1.166580694704168,
    1.1641869219213394, 1.1618077174411634, 1.1594429344766246,
    1.1570924283001636, 1.1547560562067063, 1.1524336774775017,
    1.1501251533447447, 1.147830346956968, 1.1455491233451773,
    1.143281349389719, 1.141026893787854, 1.1387856270220247,
    1.1365574213287963, 1.134342150668456, 1.1321396906952514,
    1.1299499187282578, 1.1277727137228513, 1.1256079562427788,
    1.1234555284328083, 1.1213153139919438, 1.1191871981471941,
    1.117071067627879, 1.1149668106404618, 1.112874316843895,
    1.1107934773254666, 1.1087241845771356, 1.1066663324723436,
    1.104619816243294, 1.1025845324586847, 1.100560379001885,
    1.0985472550495463, 1.096545061050638, 1.0945536987058935,
    1.0925730709476638, 1.0906030819201638, 1.0886436369601056,
    1.0866946425777064, 1.084756006438067, 1.0828276373429084,
    1.0809094452126609, 1.0790013410688952, 1.0771032370170925,
    1.0752150462297385, 1.0733366829297424, 1.0714680623741666,
    1.0696091008382653, 1.067759715599822, 1.0659198249237796,
    1.064089348047159, 1.0622682051642571, 1.0604563174121195,
    1.058653606856282, 1.056859996476773, 1.0550754101543753,
    1.0532997726571374, 1.051533009627131, 1.0497750475674494,
    1.0480258138294423, 1.0462852366001782, 1.0445532448901362,
    1.042829768521115, 1.0411147381143606, 1.0394080850789045,
    1.0377097416001089, 1.0360196406284143, 1.0343377158682885,
    1.0326639017673644, 1.0309981335057752, 1.0293403469856695,
    1.0276904788209145, 1.0260484663269736, 1.0244142475109634,
    1.022787761061878, 1.021168946340986, 1.019557743372388,
    1.017954092833739, 1.0163579360471262, 1.014769214970105,
    1.0131878721868832, 1.0116138508996566, 1.0100470949200904,
    1.008487548660942, 1.0069351571278256, 1.0053898659111142,
    1.0038516211779749, 1.0023203696645375, 1.0007960586681925,
    0.999278636040016,
)
_MARGIN = 1e-10
# each breakpoint's margin b_d (1 - _MARGIN), b_d (1 + _MARGIN), the lowest
# first: an even number of edges at or below x puts x between margins, an
# odd number inside one
_EDGES = tuple(e for b in reversed(_BREAKS)
               for e in (b * (1.0 - _MARGIN), b * (1.0 + _MARGIN)))


def _uncertified(x, max_depth):
    return OracleError(
        f"classic fraction for R({x}) not certified within {max_depth} levels")


def _mills_cf(x, max_depth=2000):
    """Deep classic fraction with certified depth selection.

    Consecutive convergents bracket R, so |R - R_d| <= d!/(B_d B_{d+1}).
    The first depth d (d < max_depth) where that bound is at most _REL_TOL
    times the running value is kept, then evaluated backward (the
    numerically benign direction) at exactly that depth.  Outside the
    breakpoints' margins the depth is read from _BREAKS by one bisect;
    inside one, or below the last breakpoint, the forward pass _certify
    finds it.  Both give the same depth outside the margins (see the module
    docstring).
    """
    if _depth_one(x):
        return 1.0 / x
    i = bisect_right(_EDGES, x)
    if i & 1 or not i:
        depth = _certify(x, max_depth)
    else:
        depth = len(_BREAKS) + 1 - (i >> 1)
    if depth is None or depth >= max_depth:
        raise _uncertified(x, max_depth)
    t = x
    for k in range(depth, 1, -1):
        t = x + (k - 1.0) / t
    return 1.0 / t


def _mills_cf_grid(x, max_depth=2000):
    """_mills_cf on an array, with the same arithmetic per element.

    One searchsorted of the elements in _EDGES gives each its depth; the
    few inside a breakpoint's margin or below the last breakpoint go
    through _certify one by one.  An error names the first uncertified
    element in input order.  The backward fold then runs level by level
    over the elements at least that deep, deepest first, with every
    level's prefix length from one searchsorted.
    """
    import numpy as np

    idx = np.flatnonzero(~_depth_one(x))
    xa = x[idx]
    i = np.searchsorted(_EDGES, xa, side="right")
    got = len(_BREAKS) + 1 - (i >> 1)
    for j in np.flatnonzero((i & 1) | (i == 0)).tolist():
        depth = _certify(xa[j].item(), max_depth)
        got[j] = max_depth if depth is None else depth
    failed = got >= max_depth
    if failed.any():
        first = idx[failed.argmax()]   # in input order
        raise _uncertified(x[first], max_depth)
    order = np.argsort(-got, kind="stable")   # deepest first
    xs, got = xa[order], got[order]
    t, q = xs.copy(), np.empty_like(xs)
    top = int(got[0]) if got.size else 1
    # for each k from top down to 2, how many elements are at least k deep
    counts = np.searchsorted(-got, np.arange(-top, -1), side="right")
    for k, c in zip(range(top, 1, -1), counts.tolist()):
        np.divide(k - 1.0, t[:c], out=q[:c])
        np.add(xs[:c], q[:c], out=t[:c])
    out = 1.0 / x
    out[idx[order]] = 1.0 / t
    return out


def reference_mills(x):
    """R(x) to close to machine precision for x >= 0."""
    x = float(x)
    if math.isnan(x) or x < 0.0:
        raise ValueError("reference_mills needs x >= 0")
    return _certified_mills(x)


# verify asks for about 400 values at under 200 distinct x; a scan of
# distinct points must not grow it forever
@lru_cache(maxsize=1024)
def _certified_mills(x):
    if x < 1.0:
        return _mills_series(x)
    return _mills_cf(x)


def reference_mills_grid(xs):
    """reference_mills over a 1-D float array, with the same arithmetic.

    Both routes do the same IEEE operations per element, so every value is
    bit-identical to reference_mills's.  Single points go through
    reference_mills: it is far cheaper than a one-element array.
    """
    import numpy as np

    x = np.asarray(xs, dtype=float)
    if x.ndim != 1:
        raise ValueError("reference_mills_grid needs a 1-D array")
    if not np.all(x >= 0.0):
        raise ValueError("reference_mills needs x >= 0")
    out = np.empty_like(x)
    small = x < 1.0
    out[small] = _mills_series_grid(x[small])
    out[~small] = _mills_cf_grid(x[~small])
    return out


def reference_tail(x):
    """Upper tail integral of the standard normal, phi(x) R(x)."""
    return _phi(x) * reference_mills(x)


_QUAD_CUTOFF = 60.0
_QUAD_INTERVALS = 12000   # a Simpson step of 0.005


@lru_cache(maxsize=None)
def _quadrature_nodes(cutoff=_QUAD_CUTOFF):
    """The Simpson nodes u on [0, cutoff] and weights e^-u, once per cutoff
    and read-only."""
    import numpy as np

    u = np.linspace(0.0, cutoff, round(_QUAD_INTERVALS * cutoff / _QUAD_CUTOFF) + 1)
    w = np.exp(-u)
    u.flags.writeable = False
    w.flags.writeable = False
    return u, w


def _gamma_quadrature(s, x):
    # M_s(x) = integral_0^inf (1 + u/x)^(s-1) e^(-u) du after t = x + u.  The
    # log integrand phi(u) = (s-1) log1p(u/x) - u is concave (s >= 1) or
    # falling, with phi' >= -1 and its top at u* = max(0, s-1-x); past a U
    # where phi is 40 below phi(u*) with slope at most -1/2 the tail is under
    # 2e-17 of M_s(x) >= (1 - 1/e) e^phi(u*).  U is the first such of 60, 120,
    # 240 and 480, or 480: past about 745 e^-u rounds to 0, and 0 times an
    # overflowed power (large s) is nan, not the inf the caller refuses.
    import numpy as np

    def phi(u):
        return (s - 1.0) * math.log1p(u / x) - u

    top, cutoff = phi(max(0.0, s - 1.0 - x)), _QUAD_CUTOFF
    while cutoff < 480.0 and (phi(cutoff) > top - 40.0 or s - 1.0 > 0.5 * (x + cutoff)):
        cutoff *= 2.0
    u, w = _quadrature_nodes(cutoff)
    with np.errstate(over="ignore"):
        y = (1.0 + u / x) ** (s - 1.0) * w
    h = cutoff / (u.size - 1)
    return float((h / 3.0) * (y[0] + y[-1]
                              + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-1:2].sum()))


_GAMMA_CAP = 2**20   # series terms or fraction levels (911 at s = 1e6, x = s + 1)
# The series' difference first - sum keeps about first/value ulps of error;
# past this ratio (small shapes, where the value is about s E1(x) of the
# first term) it is refused.  The worst ratio a verify suite or a scipy test
# point reaches is 14.7, and the mpmath pin's (0.01, 1.0) is 451.
_GAMMA_CANCEL = 2.0**10


def _gamma_series(s, x):
    """M_s(x) = exp((1-s) ln x + x + lgamma(s)) - sum_{k>=1} x^k/(s...(s+k-1)),
    refused where the first term passes _GAMMA_CANCEL times the value."""
    try:
        first = math.exp((1.0 - s) * math.log(x) + x + math.lgamma(s))
    except OverflowError:
        raise OracleError(f"M_{s}({x}): the series' first term overflows") from None
    term = total = x / s
    k = s
    for _ in range(_GAMMA_CAP):
        k += 1.0
        term *= x / k   # x/(s+k) < 1 for x < s + 1
        if total + term == total:
            value = first - total
            if not _GAMMA_CANCEL * value >= first:
                raise OracleError(f"M_{s}({x}): the series cancels, its first "
                                  f"term {first!r} is past 2^10 times {value!r}")
            return value
        total += term
    raise OracleError(f"M_{s}({x}): series still moving after {_GAMMA_CAP} terms")


def _gamma_cf(s, x):
    """M_s(x) = x/D, D = (x + 1 - s) + K_{i>=1}(i(s-i)/(x + 2i + 1 - s)), by
    modified Lentz: exact where a numerator is 0, else to a factor 1 +- 2^-52."""
    f = c = x + (1.0 - s)   # at least 2, or x at s = 1
    d, i = 0.0, 0.0
    for _ in range(_GAMMA_CAP):
        i += 1.0
        a = i * (s - i)
        if a == 0.0:
            return x / f
        b = x + ((2.0 * i + 1.0) - s)
        d = 1.0 / ((b + a * d) or 1e-300)   # Lentz's stand-in for a 0
        c = (b + a / c) or 1e-300
        f *= c * d
        if abs(c * d - 1.0) <= 2.0**-52:
            return x / f
    raise OracleError(f"M_{s}({x}): fraction still moving after {_GAMMA_CAP} levels")


def reference_gamma_mills(s, x):
    """M_s(x) = x^(1-s) e^x Gamma(s, x): the lower series below x = s + 1,
    Legendre's fraction from there on and at s = 1, where it is exactly 1;
    checked against quadrature for x >= 1.

    The series' difference cancels at small shapes; where its first term
    passes 2^10 times the value it raises OracleError.  What the cap lets
    through is about 2.6e-12 relative at worst (1500 random points with s
    in [1e-8, 1] and x below s + 1, against mpmath at 40 digits); at
    (1.7e-8, 0.66) the uncapped series was 2e-7 off."""
    s, x = float(s), float(x)
    if not (0.0 < s < math.inf and 0.0 < x < math.inf):
        raise ValueError("reference_gamma_mills needs 0 < s < inf and 0 < x < inf")
    # the quadrature first: at large s its power overflows before the
    # series' first term does
    quad = _gamma_quadrature(s, x) if x >= 1.0 else None
    if quad is not None and not math.isfinite(quad):
        raise OracleError(f"M_{s}({x}): quadrature {quad!r} is not finite")
    value = _gamma_series(s, x) if x < s + 1.0 and s != 1.0 else _gamma_cf(s, x)
    if quad is not None and abs(value - quad) > 1e-7 * max(1.0, abs(value)):
        raise OracleError(f"M_{s}({x}): {value!r} vs quadrature {quad!r}")
    return value
