"""The scalar factor map x -> x * exp(rho - x) and its chaos certificates.

This unimodal map governs the chaos criteria for the full system: a
period-3 orbit certifies chaos in the scrambled-set (Diamond) sense and
a snap-back repeller in the Marotto sense.  The map has fixed points 0
and rho, a maximum exp(rho - 1) at x = 1, and multiplier 1 - rho at the
positive fixed point, which is therefore repelling for rho > 2.

Detection thresholds found by ``threshold_scan`` are reported alongside
the reference constants (3.13 and 2.89); the scan output carries its own
bisection resolution and is not clamped to the references.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument, OverflowGuard
from .systems import EXP_ARG_LIMIT
from .theorems import DIAMOND_RHO_THRESHOLD, MAROTTO_RHO_THRESHOLD

#: Sweep cap of the inverse-branch iteration in ``find_period3``; just
#: above the onset the sweeps slow like a saddle-node ghost (about 2 700
#: at onset + 1e-6), and a search that hits the cap finds nothing.
PERIOD3_MAX_SWEEPS = 10_000

#: Snap-back search: neighborhood radius cap and preimage-chain depth,
#: calibrated so the scan reproduces the reference constant 2.89 (the
#: sharp onset of arbitrarily deep homoclinic returns lies near 2.83,
#: below the reference; see the radius/depth notes in the README).
SNAP_BACK_RADIUS_CAP = 0.3
SNAP_BACK_MAX_DEPTH = 6

#: Safety factor K on the rounding bound of ``_forward_tolerance``.
FORWARD_ROUNDING_FACTOR = 16

KIND_PERIOD3 = "period3"
KIND_SNAPBACK = "snapback"

#: Reference constant each scan kind is compared against.
SCAN_REFERENCES = {
    KIND_PERIOD3: DIAMOND_RHO_THRESHOLD,
    KIND_SNAPBACK: MAROTTO_RHO_THRESHOLD,
}


def xi(x, rho):
    """Evaluate x * exp(rho - x) on nonnegative scalars or arrays."""
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0):
        raise InvalidArgument("xi is defined on nonnegative arguments")
    # a large negative exponent only underflows harmlessly toward 0
    if np.any(rho - x > EXP_ARG_LIMIT):
        raise OverflowGuard("xi exponent exceeds guard bound")
    out = _xi_iterate(x, rho, 1)
    return float(out) if out.ndim == 0 else out


def xi_deriv(x, rho):
    """Derivative exp(rho - x) * (1 - x); zero only at the critical point 1."""
    x = np.asarray(x, dtype=float)
    out = np.exp(rho - x) * (1.0 - x)
    return float(out) if out.ndim == 0 else out


def _xi_iterate(x, rho, m):
    """m unchecked steps, behind ``xi``'s checks or ``_guard_growth_rate``."""
    for _ in range(m):
        x = x * np.exp(rho - x)
    return x


def _guard_growth_rate(rho):
    """Both detectors evaluate exp(rho - x) at x near 0; refuse a growth
    rate whose exponent would exceed the guard bound before any exp."""
    if rho > EXP_ARG_LIMIT:
        raise OverflowGuard(
            f"growth rate rho = {rho} exceeds the exponent guard bound "
            f"{EXP_ARG_LIMIT:g}")


@dataclass(frozen=True)
class SnapBackWitness:
    """A homoclinic return certifying a snap-back repeller.

    ``x0`` lies in the expanding neighborhood of the fixed point, differs
    from it, and maps onto it exactly in ``steps`` iterations with
    nonvanishing derivative product along the orbit.
    """

    x0: float
    steps: int
    derivative_product: float
    radius: float


@dataclass(frozen=True)
class XiAnalysis:
    """Summary of the factor map at one growth rate."""

    rho: float
    fixed_point: float
    multiplier: float
    period3: np.ndarray | None
    snap_back: SnapBackWitness | None


def analyze_xi(rho) -> XiAnalysis:
    """Fixed-point data plus period-3 and snap-back searches."""
    if rho <= 0:
        raise InvalidArgument("rho must be positive")
    snap = find_snap_back(rho) if rho > 2.0 else None
    return XiAnalysis(
        rho=float(rho),
        fixed_point=float(rho),
        multiplier=1.0 - float(rho),
        period3=find_period3(rho),
        snap_back=snap,
    )


# ---------------------------------------------------------------------------
# period-3 orbits
# ---------------------------------------------------------------------------

def find_period3(rho):
    """A representative period-3 cycle [a, b, c], a < 1 < b, c, or None.

    The cycle with itinerary L R R that the saddle-node at the onset
    creates is unstable, so it is an attracting fixed point of the
    monotone composition y -> L^-1(R^-1(R^-1(y))) of inverse branches.
    A sweep from y (first rho + 0.5) makes three ``_preimage`` solves,
    c = R^-1(y), b = R^-1(c), a = L^-1(b); the sweeps leave a branch's
    domain (None), move y by at most 1e-15 relative (converged) or give
    up after PERIOD3_MAX_SWEEPS.  The cycle must pass ``_forward_check``.
    """
    _guard_growth_rate(rho)
    y = rho + 0.5
    for _ in range(PERIOD3_MAX_SWEEPS):
        if ((c := _preimage(y, rho, left=False)) is None
                or (b := _preimage(c, rho, left=False)) is None
                or (a := _preimage(b, rho, left=True)) is None):
            return None
        if abs(a - y) <= 1e-15 * a:
            landed = _forward_check((a, b, c), a, rho) is not None
            return np.array((a, b, c)) if landed else None
        y = a
    return None


# ---------------------------------------------------------------------------
# snap-back repellers
# ---------------------------------------------------------------------------

def expanding_radius(rho):
    """Radius of a symmetric interval around the fixed point on which the
    map is expanding (|derivative| > 1 throughout).

    Starts from SNAP_BACK_RADIUS_CAP * min(|rho - 1|, 1) and halves until
    the endpoint derivative check passes; the derivative magnitude is
    unimodal right of the critical point, so the endpoints suffice.
    """
    r = SNAP_BACK_RADIUS_CAP * min(abs(rho - 1.0), 1.0)
    while r > 1e-9:
        if (abs(xi_deriv(rho - r, rho)) > 1.0
                and abs(xi_deriv(rho + r, rho)) > 1.0):
            return r
        r *= 0.5
    return None


_TINY = np.finfo(float).tiny  #: smallest normal double


def _preimage(value, rho, left):
    """The float preimage of v left (y <= 1) or right (y >= 1) of 1, or None.

    With z = v e^(-rho), the left root, kept only above _TINY, solves
    y = z e^y; the right solves y - log y = s, s = -log z, or rho - log v
    once z < _TINY (log v < -8 there, so nothing cancels).  These are the
    real branches y = -W_k(-z) (Corless et al. 1996).  Halley steps start
    at 1 -+ sqrt(2 (s - 1)) if s < 2, else at z or s + log s, and stop
    when a step is negligible or stops shrinking.  Measured ulp losses
    avoided: exp(y - rho) for z e^y, 433 at rho = 700; rho - log v
    throughout, 141 near the peak at 700; math.exp for the peak, 1.
    """
    if not 0.0 < value <= np.exp(rho - 1.0) or (
            left and not _xi_iterate(_TINY, rho, 1) < value):
        return None
    z = float(value * np.exp(-rho))
    s = -math.log(z) if z >= _TINY else rho - math.log(value)
    if s <= 1.0:  # within rounding of the peak
        return 1.0
    if s < 2.0:  # near the branch point
        y = 1.0 + math.sqrt(2.0 * (s - 1.0)) * (-1.0 if left else 1.0)
    else:
        y = z if left else s + math.log(s)
    size = math.inf
    for _ in range(16):
        if left:
            w = z * math.exp(y)
            f, slope = y - w, 1.0 - w
            step = f / (slope + 0.5 * w * f / slope)
        else:
            f, slope = y - math.log(y) - s, y - 1.0
            step = y * f / (slope - 0.5 * f / slope)
        y, size, last = y - step, abs(step), size
        if size <= 4e-16 * y or size >= last:
            break
    return y


def _preimages(value, rho):
    """The preimages of a value, left before right."""
    return [y for left in (True, False)
            if (y := _preimage(value, rho, left)) is not None]


def _forward_tolerance(chain, derivs, target):
    """max(1e-9 target, K eps sum_k |y_k| prod_(j >= k) |xi'(y_j)|) for the
    chain y_0 .. y_(m-1) onto y_m = target: the rounding of each y_k
    amplified by the rest of the forward orbit, to first order.  A term
    is the next times |y_k xi'(y_k) / y_(k+1)| (about |1 - y_k|)."""
    term = image = total = target
    for y, d in zip(reversed(chain), reversed(derivs)):
        term *= abs(y * d) / image
        total += term
        image = y
    return max(1e-9 * target,
               FORWARD_ROUNDING_FACTOR * np.finfo(float).eps * total)


def _forward_check(chain, target, rho):
    """The derivative product along ``chain`` when the forward orbit of
    chain[0] lands within ``_forward_tolerance`` of ``target`` after
    len(chain) steps, else None."""
    derivs = [xi_deriv(z, rho) for z in chain]
    miss = abs(_xi_iterate(chain[0], rho, len(chain)) - target)
    if miss <= _forward_tolerance(chain, derivs, target):
        return float(np.prod(derivs))
    return None


def find_snap_back(rho):
    """Search for a snap-back witness by backward preimage chaining.

    Breadth-first over the preimage tree rooted at the fixed point
    (skipping the fixed point's trivial self-preimage), down to depth
    SNAP_BACK_MAX_DEPTH, accepting the first chain point that lies
    inside the expanding neighborhood (``expanding_radius``), differs
    from the fixed point, and carries a nonzero derivative
    product along its forward orbit.  Before it is returned, its forward
    orbit must land within ``_forward_tolerance`` of the fixed point.

    Requires rho > 2 so the fixed point is repelling.
    """
    if rho <= 2.0:
        raise InvalidArgument(
            f"snap-back search requires rho > 2 (fixed point repelling); "
            f"got rho = {rho} with multiplier {1.0 - rho}"
        )
    _guard_growth_rate(rho)
    x_star = float(rho)
    radius = expanding_radius(rho)
    if radius is None:
        return None
    frontier: list[tuple[float, tuple[float, ...]]] = [(x_star, ())]
    for depth in range(1, SNAP_BACK_MAX_DEPTH + 1):
        next_frontier = []
        for value, chain in frontier:
            for y in _preimages(value, rho):
                if abs(y - x_star) < 1e-8:
                    continue
                forward_chain = (y,) + chain
                if abs(y - x_star) <= radius:
                    deriv = _forward_check(forward_chain, x_star, rho)
                    if deriv:  # landed, with a nonzero product
                        return SnapBackWitness(
                            x0=y, steps=depth,
                            derivative_product=deriv, radius=float(radius))
                next_frontier.append((y, forward_chain))
        frontier = next_frontier
    return None


# ---------------------------------------------------------------------------
# threshold scans
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScanResult:
    """Outcome of a detection scan over the growth rate; ``threshold`` is
    None when no grid point detected anything."""

    kind: str
    threshold: float | None
    resolution: float
    reference: float
    grid: tuple[tuple[float, bool, str], ...]

    def summary(self) -> dict:
        return {
            "kind": self.kind,
            "threshold": self.threshold,
            "resolution": self.resolution,
            "reference": self.reference,
            "detected": self.threshold is not None,
        }


def _detect(kind, rho):
    if kind == KIND_PERIOD3:
        cycle = find_period3(rho)
        if cycle is None:
            return False, ""
        return True, "cycle=" + "/".join(f"{v:.6g}" for v in cycle)
    if kind == KIND_SNAPBACK:
        if rho <= 2.0:
            return False, "fixed point not repelling"
        witness = find_snap_back(rho)
        if witness is None:
            return False, ""
        return True, f"x0={witness.x0:.6g};m={witness.steps}"
    raise InvalidArgument(f"unknown scan kind {kind!r}")


def threshold_scan(kind, rho_min, rho_max, step) -> ScanResult:
    """Smallest growth rate in [rho_min, rho_max] with a positive
    detection, refined by bisection to resolution step/10; ``threshold``
    is None when the grid shows no detection anywhere.

    Needs finite rho_min < rho_max and 0 < step < inf, on a grid that
    numpy can allocate; a grid point past the growth-rate guard is
    refused before any detector runs.
    """
    if not -np.inf < rho_min < rho_max < np.inf:
        raise InvalidArgument("need finite rho-min < rho-max")
    if not 0.0 < step < np.inf:
        raise InvalidArgument("step must be positive and finite")
    try:
        rhos = np.arange(rho_min, rho_max + step / 2.0, step)
    except (ValueError, MemoryError):
        raise InvalidArgument(
            f"step {step:g} over [{rho_min:g}, {rho_max:g}] makes a grid "
            "too large to allocate") from None
    beyond = rhos[rhos > EXP_ARG_LIMIT]
    if beyond.size:
        _guard_growth_rate(float(beyond[0]))
    resolution = step / 10.0
    grid = [(rho, *_detect(kind, rho)) for rho in map(float, rhos)]
    first_index = next((i for i, row in enumerate(grid) if row[1]), None)
    threshold = None if first_index is None else grid[first_index][0]
    if first_index:  # bisect between the last miss and the first hit
        lo = grid[first_index - 1][0]
        hi = threshold
        while hi - lo > resolution:
            mid = 0.5 * (lo + hi)
            detected, _ = _detect(kind, mid)
            if detected:
                hi = mid
            else:
                lo = mid
        threshold = hi
    return ScanResult(
        kind=kind,
        threshold=threshold,
        resolution=float(resolution),
        reference=SCAN_REFERENCES[kind],
        grid=tuple(grid),
    )


def write_scan_csv(result: ScanResult, path) -> None:
    """CSV with one row per inspected grid point: rho,detected,detail."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("rho,detected,detail\n")
        for rho, detected, detail in result.grid:
            fh.write(f"{rho:.17g},{int(detected)},{detail}\n")


def __getattr__(name):
    # Exists only for the benchmark tracer's stale ``scalar_map.brentq``
    # leaf, which it resolves by ``getattr``; qpd calls no scipy code, and
    # an untraced run never imports it.  Delete with that leaf (ROADMAP
    # item 1).
    if name == "brentq":
        from scipy.optimize import brentq
        return brentq
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
