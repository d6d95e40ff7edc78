"""Grids and quadrature engines over the disk and its circles.

Everything funnels through a GridConfig: angular trapezoid nodes (exact
for trigonometric polynomials below the Nyquist degree), Gauss-Legendre
radial nodes in t = r^2, a Gauss-Jacobi rule for weighted radial
integrals with an endpoint weight, a refined grid supremum, and the
circle means of |f|^p for p < 2, on nested angular rules.
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np

from .analytic_core import R_MAX, _checked_circles, as_family, unit_circle
from .errors import ParameterError


@dataclasses.dataclass(frozen=True)
class GridConfig:
    """Grid sizes shared by all quadrature routines.

    n_theta angular nodes (a power of two, so that angular transforms
    use the FFT), n_radial Gauss-Legendre nodes, and the outermost radius
    r_max, which fixes the ladder of radii approaching it (sup_radii).
    """

    n_theta: int = 512
    n_radial: int = 64
    r_max: float = R_MAX

    def __post_init__(self):
        # A size that int() would truncate names another grid: it is rejected.
        n = int(self.n_theta)
        if n != self.n_theta or n < 64 or (n & (n - 1)) != 0:
            raise ParameterError(f"n_theta must be a power of two and at least 64, got {self.n_theta}")
        m = int(self.n_radial)
        if m != self.n_radial or m < 4:
            raise ParameterError(f"n_radial must be an integer of at least 4, got {self.n_radial}")
        r_max = float(self.r_max)
        if not 0.0 < r_max < 1.0:
            raise ParameterError(f"r_max must lie in (0, 1), got {r_max}")
        object.__setattr__(self, "n_theta", n)
        object.__setattr__(self, "n_radial", m)
        object.__setattr__(self, "r_max", r_max)

    @functools.cached_property
    def sup_radii(self) -> tuple:
        """Radii min(1 - 2^-k, r_max), k = 1 .. 20, without repeats: the supremum and trend ladder."""
        return tuple(sorted({min(1.0 - 2.0 ** (-k), self.r_max) for k in range(1, 21)}))

    def refined(self) -> "GridConfig":
        """A copy with twice the angular and radial nodes."""
        return GridConfig(2 * self.n_theta, 2 * self.n_radial, self.r_max)


def default_config() -> GridConfig:
    """The default grid: 512 angles, 64 radial nodes, r_max = R_MAX."""
    return GridConfig()


def gauss01(n: int):
    """Gauss-Legendre nodes and weights transplanted to [0, 1]: the Jacobi rule at exponent 0."""
    return _jacobi01(n, 0.0)


@functools.lru_cache(maxsize=64)
def _jacobi01(n: int, alpha: float):
    # Nodes and weights so that sum w_i g(t_i) = int_0^1 g(t) (1-t)^alpha dt
    # for smooth g, exact when g is a polynomial of degree < 2n: the
    # Golub-Welsch rule (Math. Comp. 23, 1969) for (1-x)^alpha on [-1, 1],
    # moved to [0, 1].  The nodes are the eigenvalues of the Jacobi
    # matrix, the weights the squared first components of its unit
    # eigenvectors, scaled to the mass 1/(alpha+1).  The first diagonal
    # entry -alpha^2 / (alpha (alpha+2)) is written reduced, so that
    # alpha = 0 is no 0/0.
    a = float(alpha)
    j = np.arange(1, n, dtype=float)
    s = 2.0 * j + a
    diag = np.concatenate([[-a / (a + 2.0)], -a * a / (s * (s + 2.0))])
    off = 2.0 * j * (j + a) / (s * np.sqrt(s * s - 1.0))
    x, v = np.linalg.eigh(np.diag(diag) + np.diag(off, -1))
    w = v[0] ** 2
    return 0.5 * (x + 1.0), w / (w.sum() * (a + 1.0))


def weighted_radial_integral(h, exponent: float, cfg: GridConfig) -> float | np.ndarray:
    """Integral of aq (1-r^2)^(aq-1) h(r) 2r dr over [0, 1], aq = exponent + 1.

    The rule runs in r, not t = r^2: Gauss-Jacobi nodes absorb the
    (1-r)^(aq-1) endpoint factor exactly for every aq > 0, and the
    remaining 2 aq r (1+r)^(aq-1) factor is analytic on [0, 1], so
    convergence is spectral in h where h is, as M_2(r)^2 of a polynomial
    is.  For p < 2, M_p(r) is weakly singular at each radius where a zero
    crosses the circle, and the rule converges algebraically there, about
    as n_radial^-3 for M_1 of a simple zero.  Working in t instead would turn odd
    circle means like M_1(r) = r into half powers of t and cost the rule
    its accuracy at the origin.  h takes an array of radii and returns
    one profile, or stacked profiles (one row each) for one integral per
    row.
    """
    aq = float(exponent) + 1.0
    if aq <= 0.0:
        raise ParameterError(f"weighted radial integral requires exponent > -1, got {exponent}")
    r, w = _jacobi01(cfg.n_radial, aq - 1.0)
    vals = np.asarray(h(r), dtype=float)
    return aq * ((2.0 * r * (1.0 + r) ** (aq - 1.0) * vals) @ w)


# omega = 1, for refined_modulus_sup.
FLAT_WEIGHT = np.ones_like


@functools.lru_cache(maxsize=32)
def scan_radii(cfg: GridConfig) -> np.ndarray:
    # Interior radii fill the gaps of the sup_radii ladder, which is
    # dense only near the boundary; gaps stay below basin widths of the
    # integrands in scope.  No radius lies past r_max.
    interior = np.linspace(0.025, 0.95, 38)
    base = np.sort(np.concatenate([[0.0], interior[interior <= cfg.r_max], cfg.sup_radii]))
    # np.unique would load numpy.ma on the first call of a process.
    return base[np.concatenate([[True], base[1:] != base[:-1]])]


@functools.lru_cache(maxsize=32)
def scan_grid(cfg: GridConfig) -> np.ndarray:
    """The scan radii times the angular nodes: the grid that the checks sample.

    Cached, like scan_radii: each check reads it once, but building it
    takes about 70 us, some 6 % of the median 1.1 ms invertibility op.
    """
    return scan_radii(cfg)[:, None] * unit_circle(cfg.n_theta)[None, :]


def _grid_maxima(family, order: int, weight: np.ndarray, radii: np.ndarray, circle: np.ndarray) -> tuple:
    """Each member's largest weight * |h| on the grid radii x circle, and where its _TOP largest lie.

    weight holds omega(|z|^2) per radius, shape (len(radii), 1).  The
    grid is swept block by block (Family.row_blocks), its points checked
    once as in Family.rowwise.  Each member keeps its running maximum,
    its _TOP largest values so far with their flat indices, ties going to
    the smaller index, and a floor at or below the smallest of them.  One
    block is held: the previous one, for the members whose floor it
    exceeded.  When the next block arrives, each of those members drops
    it if the new block has _TOP values above every value before it, as
    most blocks have while values rise with r, and merges it otherwise;
    the last held block is merged at the end.  A block is skipped,
    neither evaluated nor reduced, where Family.circle_bounds keep every
    member's values at or below its floor, where a value loses a tie to
    the earlier ones: it changes no maximum and no candidate.
    Returns the maxima and the candidates' flat indices, one row per
    member, largest value first: they do not depend on the blocks.
    """
    n_cols, size = len(circle), len(family)
    best = np.full(size, -np.inf)
    # The candidates in flat index order, and the floor.
    top_vals = np.full((size, _TOP), -np.inf)
    top_idx = np.tile(np.arange(_TOP), (size, 1))
    floor = np.full(size, -np.inf)
    # The held block, the flat index of its first value, and its members.
    held, first, holding = None, 0, np.zeros(size, dtype=bool)

    def merge(members):
        # The members' candidates become the _TOP largest of them and the
        # held block's values: the pool's columns follow the flat index.
        if not len(members):
            return
        pool = np.empty((len(members), _TOP + held.shape[1]))
        pool[:, :_TOP] = top_vals[members]
        np.take(held, members, axis=0, out=pool[:, _TOP:], mode="clip")
        # The (_TOP + 1)-th largest, then the _TOP largest in any order; the
        # copy frees the partition's indices, as large as the pool.
        part = np.argpartition(pool, -_TOP - 1, axis=1)[:, -_TOP - 1 :].copy()
        vals = np.take_along_axis(pool, part, axis=1)
        cols = np.sort(part[:, 1:], axis=1)
        kth = vals[:, 1:].min(axis=1)
        # Where the (_TOP + 1)-th equals the smallest kept value, of the values
        # equal to it the first are kept: row by row, as rows of a rotation-
        # invariant |f| tie across the pool and nothing as large is made.
        for k in np.flatnonzero(vals[:, 0] == kth):
            above = np.flatnonzero(pool[k] > kth[k])
            cols[k] = np.sort(np.concatenate([above, np.flatnonzero(pool[k] == kth[k])[: _TOP - len(above)]]))
        row = np.arange(len(members))[:, None]
        col = cols - _TOP
        top_idx[members] = np.where(col < 0, top_idx[members][row, np.minimum(cols, _TOP - 1)], col + first)
        top_vals[members] = pool[row, cols]
        floor[members] = kth

    def reduce(h, rows):
        nonlocal held, first, holding
        grid = np.abs(h)
        grid *= weight[rows]
        values = grid.reshape(size, -1)
        peaks = values.max(axis=1)
        ahead = peaks > floor
        replaces = ahead & (np.count_nonzero(values > best[:, None], axis=1) >= _TOP)
        top_vals[replaces] = -np.inf
        floor[replaces] = best[replaces]
        merge(np.flatnonzero(holding & ~replaces))
        np.maximum(best, peaks, out=best)
        held, first, holding = values, rows.start * n_cols, ahead

    _checked_circles(radii, circle)
    # inf * 0 is NaN, which rules out no block either.
    with np.errstate(all="ignore"):
        bounds = family.circle_bounds(radii, order) * np.abs(weight[:, 0])
    for rows in family.row_blocks((len(radii), n_cols), order):
        if np.all(bounds[:, rows].max(axis=1) <= floor):
            continue
        reduce(family._evaluate((radii[rows, None] * circle).reshape(1, -1), order).reshape(size, -1, n_cols), rows)
    # No block is held for a member with a NaN in every block.
    merge(np.flatnonzero(holding))
    return best, np.take_along_axis(top_idx, np.lexsort((top_idx, -top_vals), axis=1), axis=1)


# A circle mean of _power_means stops at L angles once it is within this
# fraction of the mean at L / 2.
_NESTED_RTOL = 1e-15


def _power_means(family, p: float, radii, n_theta: int, order: int) -> np.ndarray:
    """M_p(r)^p of each member's derivative of the given order at the radii, for p < 2, one row per member.

    |h|^p has a kink at each zero of h, which n_theta angles alias where
    a zero lies near the circle; away from the zeros it is analytic, and
    the trapezoid rule converges geometrically (Trefethen and Weideman,
    SIAM Review 56, 2014).  The rules on L = n_theta, 2 n_theta and
    4 n_theta angles nest: unit_circle(2 L)[::2] is unit_circle(L).  One
    sweep on n_theta angles gives each (member, radius) its means on
    the even samples and on all of them.  A mean at L angles is taken
    once it is within _NESTED_RTOL of the mean at L / 2 and L exceeds
    the member's degree bound (Family.degree_bounds), below which z^L would
    alias at both levels; otherwise the odd samples of 2 L are added,
    for the members that go on at each radius together, up to 4 n_theta
    angles, where every mean is taken.
    """
    radii = np.asarray(radii, dtype=float)
    # At p = 1 the power is skipped, which numpy would still copy.
    power = (lambda m: m) if p == 1.0 else (lambda m: m ** p)

    def halves(values, rows):
        # The sums over the even and the odd samples.
        a = power(np.abs(values))
        return np.stack([a[..., ::2].sum(axis=-1), a[..., 1::2].sum(axis=-1)], axis=-1)

    old, new = np.moveaxis(family.rowwise(radii, unit_circle(n_theta), order, halves), -1, 0)
    # sums over the samples taken, and their number
    sums, count = old + new, np.full(old.shape, n_theta)
    going = np.ones(old.shape, dtype=bool)
    degree = family.degree_bounds()[:, None]
    level = n_theta
    while True:
        # |T_L - T_(L/2)| = |new - old| / L, with old the sum at L / 2.
        going &= ~((np.abs(new - old) <= _NESTED_RTOL * sums) & (level > degree))
        if level == 4 * n_theta or not going.any():
            return sums / count
        odd = unit_circle(2 * level)[1::2]
        new = np.zeros_like(sums)
        for i in np.flatnonzero(going.any(axis=0)):
            members = np.flatnonzero(going[:, i])
            new[members, i] = power(np.abs(family.subset(members).derivative(radii[i] * odd, order))).sum(axis=-1)
        # new is 0 where a mean was taken.
        level *= 2
        old, sums = sums, sums + new
        count[going] = level


def _select_candidates(order, n_cols: int, k: int) -> list:
    """Up to k (row, column) points of a grid n_cols wide, spread out over it.

    order holds flat grid indices, largest value first: each is picked
    unless it lies within one row and two columns of a point picked
    before it.
    """
    picked = []
    for idx in order:
        i, j = divmod(int(idx), n_cols)
        close = False
        for (pi, pj) in picked:
            dj = abs(j - pj)
            dj = min(dj, n_cols - dj)
            if abs(i - pi) <= 1 and dj <= 2:
                close = True
                break
        if not close:
            picked.append((i, j))
        if len(picked) == k:
            break
    return picked


def refined_modulus_sup(family, order: int, omega, cfg: GridConfig) -> np.ndarray:
    """Supremum over the disk of omega(|z|^2) * |h(z)| for every member.

    h is the member itself (order 0) or its derivative (order 1); a
    single expression counts as a one-member family.  omega is the
    radial weight in t = |z|^2.  The grid scan streams the family's
    values block by block (_grid_maxima).  Up to _POLISH_CANDIDATES of
    each member's leading grid maxima, spread over the grid, are then
    polished together in a box of one ladder step in r and two grid
    steps in theta around each (see _polish): a Newton step converges
    into each maximum, where plain coordinate search stalls on diagonal
    ridges.  With FLAT_WEIGHT at order 0 the maximum principle puts the
    sup of a member analytic on the disk on |z| = r_max: the scan is
    that one circle and the polish moves theta alone, in the same boxes
    of two grid steps.  A pole inside the disk is not seen there.  Each
    result is the largest value at an evaluated point, so still a lower
    bound for the sup.
    """
    family = as_family(family)
    on_circle = omega is FLAT_WEIGHT and order == 0
    radii = np.array([cfg.r_max]) if on_circle else scan_radii(cfg)
    angles = 2.0 * np.pi * np.arange(cfg.n_theta) / cfg.n_theta
    best, top = _grid_maxima(family, order, omega(radii[:, None] ** 2), radii, unit_circle(cfg.n_theta))
    dtheta = 2.0 * np.pi / cfg.n_theta
    picks = [_select_candidates(t, cfg.n_theta, _POLISH_CANDIDATES) for t in top.tolist()]
    # Members with fewer picks repeat their first one, so that every
    # member has the same number of boxes.
    n_boxes = max(len(p) for p in picks)
    i, j = np.array([p + p[:1] * (n_boxes - len(p)) for p in picks]).transpose(2, 0, 1)
    theta = angles[j]

    def weighted(x, starts):
        # phi = omega(r^2) |h| at the points x[n, ...] = (r, theta), theta
        # alone on the circle, where omega is 1, of member starts[0][n]
        r = cfg.r_max if on_circle else x[..., 0]
        modulus = np.abs(family.derivative_at(r * np.exp(1j * x[..., -1]), order, starts[0]))
        return modulus if on_circle else omega(r * r) * modulus

    ladder = np.concatenate([[0.0], radii, [cfg.r_max]])
    start = np.stack([radii[i], theta], axis=-1)
    lo = np.stack([ladder[i], theta - 2.0 * dtheta], axis=-1)
    hi = np.stack([ladder[i + 2], theta + 2.0 * dtheta], axis=-1)
    if on_circle:
        start, lo, hi = start[..., 1:], lo[..., 1:], hi[..., 1:]
    polished = _polish(weighted, start, lo, hi)
    return np.maximum(best, np.where(np.isfinite(polished), polished, -np.inf).max(axis=1))


# The polish stops a start once its scaled projected gradient is at most
# _POLISH_GTOL, once no step of the line search ascends, or after
# _POLISH_ITERATIONS Newton steps.  Each step evaluates the full step and
# its _POLISH_HALVINGS halvings in one call and takes the longest that
# ascends (_LINE_SEARCH).  A stopped start is not evaluated again.  The
# derivatives of log phi are differences at _POLISH_FD_STEP box widths.
# refined_modulus_sup starts it from up to _POLISH_CANDIDATES grid maxima
# of each member, on the circle |z| = r_max alone for a flat weight.
_POLISH_CANDIDATES = 4
# Grid candidates each member keeps for _select_candidates.
_TOP = 8 * _POLISH_CANDIDATES
_POLISH_ITERATIONS = 20
_POLISH_HALVINGS = 8
_POLISH_GTOL = 1e-10
_POLISH_FD_STEP = 1e-4
_LINE_SEARCH = 0.5 ** np.arange(_POLISH_HALVINGS + 1)


def _polish(fn, x, lo, hi) -> np.ndarray:
    """Largest phi reached from each start x in its box [lo, hi]; shape x.shape[:-1].

    A projected Newton ascent on log phi (Bertsekas, SIAM J. Control
    Optim. 20, 1982) for every start at once, in box coordinates scaled
    to unit width.  x has shape batch + (d,), the batch led by the
    members, and lo and hi broadcast to it.  fn(points, starts) maps
    points of shape (n, m, d) of n starts to phi there, of shape (n, m);
    starts indexes those starts in the batch, a tuple of index arrays
    as np.nonzero gives them, so starts[0] names their members.  Only
    starts still running are evaluated.  The gradient and Hessian of
    log phi come from three-point differences of its values at steps
    (1, -1), or (1, 2) or (-1, -2) next to a face, and one step along
    each pair of axes: no point leaves the box.  A coordinate within one
    step of a face that its gradient points out of is held and moved
    onto that face; the Newton step acts on the others, with the
    Hessian's eigenvalues taken in modulus so that it ascends, and is
    scaled to at most one box width along any axis.  The step and its
    halvings are projected onto the box and evaluated in one call; the
    longest that strictly increases phi is accepted.
    """
    batch, d = x.shape[:-1], x.shape[-1]
    x = x.reshape(-1, d).copy()
    lo = np.broadcast_to(lo, batch + (d,)).reshape(-1, d)
    hi = np.broadcast_to(hi, batch + (d,)).reshape(-1, d)
    width = hi - lo
    delta = _POLISH_FD_STEP * width
    eye = np.eye(d)
    a, b = np.triu_indices(d, 1)
    pairs = eye[a] + eye[b]

    def at(points, idx):
        return fn(points, np.unravel_index(idx, batch))

    # The running starts: flat indices in batch order, points, boxes, steps, widths and values
    run = np.arange(len(x))
    phi = at(x[:, None, :], run)[:, 0]
    xr, lor, hir, dr, wr, pr = x, lo, hi, delta, width, phi
    with np.errstate(all="ignore"):
        for _ in range(_POLISH_ITERATIONS):
            near_lo = xr - dr < lor
            near_hi = xr + dr > hir
            # Steps in units of delta: s1 along each axis stays in the box.
            s1 = np.where(near_hi, -1.0, 1.0)
            s2 = np.where(near_lo, 2.0, np.where(near_hi, -2.0, -1.0))
            step1 = (s1 * dr)[:, None, :]
            offsets = np.concatenate([step1 * eye, (s2 * dr)[:, None, :] * eye, step1 * pairs], axis=-2)
            f = np.log(at(xr[:, None, :] + offsets, run)) - np.log(pr)[:, None]
            d1, d2 = f[:, :d], f[:, d : 2 * d]
            # The quadratic through the differences d1, d2 at s1, s2 = -s1 or 2 s1.
            grad = s1 * (s2 * s2 * d1 - d2) / (2.0 * _POLISH_FD_STEP)
            hess = eye * ((d2 - s1 * s2 * d1) / _POLISH_FD_STEP**2)[:, None, :]
            cross = (f[:, 2 * d :] - d1[:, a] - d1[:, b]) * s1[:, a] * s1[:, b] / _POLISH_FD_STEP**2
            hess[:, a, b] = cross
            hess[:, b, a] = cross
            held = (near_lo & (grad < 0.0)) | (near_hi & (grad > 0.0))
            face = np.where(near_lo, lor, hir)
            grad = np.where(held, 0.0, grad)
            ok = np.isfinite(grad).all(axis=-1) & np.isfinite(hess).all(axis=(-2, -1)) & np.isfinite(pr)
            going = ok & ((np.abs(grad).max(axis=-1) > _POLISH_GTOL) | (held & (xr != face)).any(axis=-1))
            if not going.any():
                break
            run, xr, lor, hir, dr, wr, pr, grad, hess, held, face = (
                v[going] for v in (run, xr, lor, hir, dr, wr, pr, grad, hess, held, face)
            )
            # Newton step on the free coordinates: held rows and columns
            # of -hess become those of the identity, with a zero gradient.
            free = ~held[:, :, None] & ~held[:, None, :]
            lam, vec = np.linalg.eigh(np.where(free, -hess, eye))
            lam = np.abs(lam)
            lam = np.maximum(lam, 1e-12 * lam.max(axis=-1, keepdims=True) + 1e-300)
            coef = np.einsum("...ji,...j->...i", vec, grad) / lam
            step = np.einsum("...ij,...j->...i", vec, coef)
            step *= wr / np.maximum(1.0, np.abs(step).max(axis=-1, keepdims=True))
            # The full step and every halving in one call; the starts that
            # none of them lifts stop.
            trial = np.where(held[:, None], face[:, None], np.clip(xr[:, None] + _LINE_SEARCH[:, None] * step[:, None], lor[:, None], hir[:, None]))
            value = at(trial, run)
            up = value > pr[:, None]
            found = up.any(axis=-1)
            first = np.argmax(up[found], axis=-1)
            run, lor, hir, dr, wr = (v[found] for v in (run, lor, hir, dr, wr))
            xr, pr = trial[found, first], value[found, first]
            phi[run] = pr
            if not len(run):
                break
    return phi.reshape(batch)
