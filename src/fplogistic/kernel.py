"""Kernel weights for the nonlocal cell energy.

For cells C_i the discrete energy needs the pair weights

    W_ij = int_{C_i} int_{C_j} |x - y|^(-(N + p*s)) dy dx,   i != j,

and the exterior weights

    V_i = int_{C_i} int_{complement of the domain} |x - y|^(-(N + p*s)) dy dx.

On a uniform grid W_ij depends only on the cell offset, so the kernel is
stored as its offset table (Toeplitz in 1D, block-Toeplitz in 2D), one pair
weight per offset (|di|, |dj|), and T: the integral of the kernel over
C_i x (R^N minus C_i), the same number on every cell.  The cells tile the
domain, so V_i = T - sum_j W_ij.  The dense W and V are derived on first use,
and so is K^-1, the inverse of the p = 2 Hessian K = 2 (T I - W).  The
weights hold their grid; ``fold`` restricts them to the mirror-even
functions, about m / 2^dim cells, where the command line solves.

In 1D the table and T are closed forms: twice-iterated antiderivatives of
the kernel.

In 2D a pair weight is the kernel integrated against the product of two
hat profiles of width 2h, the overlap of one cell with the other shifted
by t, centred at the offset.  Unless the cells touch, the kernel is smooth
on the hats' support, so one tensor Gauss rule on the hats gives every
other entry: split at the kinks, at two orders that must agree to
ASSEMBLY_REL_TOL (KernelError otherwise).  Along the long cell axis the
hats that reach 0 take ceil(aspect ratio) panels per half, because there
the kernel varies on the scale of the short side.  The three touching
offsets (|di|, |dj| <= 1) follow from self-similarity.  Splitting both
cells into their four half-size cells writes the weight of offset o as

    W(o) = rho * sum_delta c(delta_x) c(delta_y) W(|2o + delta|),

over delta in {-1, 0, 1}^2, with rho = 2^(ps - 2), c(0) = 2, c(+-1) = 1.
For the touching offsets this is a triangular 3 x 3 system in the touching
weights, whose other terms are tensor-rule entries out to offset 3; its
pivots 1 - rho and 1 - 2 rho are positive because ps < 1.  Splitting one
cell the same way gives T = 2^ps / (2^ps - 1) * (sum of the touching
weights).
"""

from __future__ import annotations

import dataclasses
import functools
import math
import zipfile
from dataclasses import dataclass

import numpy as np

from .domain import Grid, GridMismatchError

__all__ = ["KernelError", "KernelWeights", "FoldedWeights", "assemble", "fold",
           "save_weights", "load_weights"]

# Relative agreement of two Gauss orders required of the 2D tensor rule.
ASSEMBLY_REL_TOL = 1e-7


class KernelError(RuntimeError):
    """The kernel weights could not be assembled to tolerance or loaded."""


class _Dense:
    """V, K^-1, cells and measures from the W, T and grid of a subclass."""

    @property
    def ncells(self) -> int:
        return self.grid.ncells

    @property
    def measures(self) -> np.ndarray:
        return self.grid.measures

    @functools.cached_property
    def V(self) -> np.ndarray:
        """(m,) exterior weights V_i = T_i - sum_j W_ij."""
        return self.T - self.W.sum(axis=1)

    @functools.cached_property
    def k_inverse(self) -> np.ndarray:
        """Inverse of K = 2 (T I - W), formed on first use, one dense inverse.

        K is the Hessian of E/2 for p = 2, the matrix the p = 2 operator
        applies as 2 (T u - W u), since T_i = sum_j W_ij + V_i by
        construction.  The inverse lives exactly as long as the weights.
        """
        k = -2.0 * self.W
        k.flat[::self.ncells + 1] += 2.0 * self.T
        return np.linalg.inv(k)


@dataclass(frozen=True, eq=False)
class KernelWeights(_Dense):
    """The kernel on a grid as its offset table and T, with s and p."""

    grid: Grid         # unfolded, n cells per axis
    table: np.ndarray  # (n,) or (n, n): weight per cell offset, 0 at offset 0
    T: float           # kernel over one cell against its complement
    s: float
    p: float

    def __post_init__(self) -> None:
        if self.grid.full is not None or self.table.size != self.grid.ncells:
            raise GridMismatchError("an offset table needs its unfolded grid")

    @property
    def ps(self) -> float:
        return self.p * self.s

    @functools.cached_property
    def W(self) -> np.ndarray:
        """(m, m) pair weights W_ij = table[|i - j| per axis]."""
        n = self.table.shape[0]
        d = np.abs(np.arange(n)[:, None] - np.arange(n))
        idx = (d,) if self.table.ndim == 1 else (d[:, None, :, None], d[None, :, None, :])
        return self.table[idx].reshape(self.ncells, -1)


@dataclass(frozen=True, eq=False)
class FoldedWeights(_Dense):
    """The weights of the mirror-even functions, one cell per orbit (``fold``)."""

    grid: Grid     # one cell per mirror orbit of grid.full
    W: np.ndarray  # (m, m) pair weights summed over both orbits, symmetric
    T: np.ndarray  # (m,) T times the orbit size
    s: float
    p: float


def _hankel(line: np.ndarray, h: int, axis: int) -> np.ndarray:
    """View of line[a + b] for a, b < h: a in place of ``axis``, b last.

    ``axis`` has at least 2h - 1 entries, so every a + b is inside ``line``.
    """
    shape = line.shape[:axis] + (h,) + line.shape[axis + 1:] + (h,)
    strides = line.strides + (line.strides[axis],)
    return np.lib.stride_tricks.as_strided(line, shape, strides, writeable=False)


def _even_couplings(table: np.ndarray) -> np.ndarray:
    """Pair weights of cell a against the mirror orbit of cell b.

    A mirror-even function is fixed by its values on the first half of
    every axis, h = ceil(n/2) cells.  Per axis the coupling of cells a and b
    of the half is table[|a - b|] + table[n-1-a-b], the second term the
    mirror image of b, except that an odd n's middle cell is its own mirror
    and counts once.  In 2D the per-axis terms multiply out over the (x, y)
    offsets.  Indexed by the cells of the half.  Both terms are read through
    Hankel views of the table, so the result is the one array of its size.
    """
    n, dim = table.shape[0], table.ndim
    h = (n + 1) // 2
    block = table
    for axis in range(dim):
        # block axes: a row per folded axis, the table axes still to fold,
        # then a column per folded axis
        lead = (slice(None),) * axis
        # line[j] = block[|j - (h-1)|]: its Hankel read bottom-up is block[|a - b|]
        line = np.concatenate([np.flip(block[lead + (slice(h),)], axis),
                               block[lead + (slice(1, h),)]], axis=axis)
        mirror = _hankel(np.flip(block, axis), h, axis).copy()
        # an odd n's middle column is its own mirror image: count it once
        mirror[..., n // 2:] = 0.0
        mirror += np.flip(_hankel(line, h, axis), axis)
        block = mirror
    return block.reshape(h ** dim, h ** dim)


def fold(kw: KernelWeights) -> FoldedWeights:
    """The problem on the mirror-even functions: one cell per mirror orbit.

    W_ij depends only on |i - j| along each axis, so the energy, the
    reaction and the mass commute with the flip i -> n-1-i of every axis
    (Cantoni & Butler 1976 for the centrosymmetric K): the principal
    eigenfunction and, for q <= p, the one positive solution are
    mirror-even, and a descent from a mirror-even point stays so.  Such a
    function is fixed by its values v on the first half of every axis.
    With U the unfold and mu_a the size of cell a's orbit (2^dim, less in
    the middle row or cell of an odd n), the folded pair weights are mu_a
    times ``_even_couplings`` (symmetric), T is mu T and the measures are
    mu |C|.  Then E_f(v) = E(U v), |v|_{M_f} = |U v|_M and L_f v is L(U v)
    on the cells of the half, so energies, residuals and eigenvalues are
    those of the full problem, and the solvers run on the folded weights,
    whose grid ``DiscreteFunction.unfold`` maps back to ``kw.grid``.
    """
    grid = kw.grid
    n, h = grid.n, (grid.n + 1) // 2
    index = np.minimum(np.arange(n), np.arange(n)[::-1])  # per axis
    cells = np.arange(h)
    if grid.dim == 2:
        index = (index[:, None] * h + index).ravel()
        cells = (cells[:, None] * n + cells).ravel()
    orbit = np.bincount(index)
    half = {name: getattr(grid, name)[cells]
            for name in ("centers", "lows", "highs", "boundary_dist")}
    folded = dataclasses.replace(grid, **half, measures=orbit * grid.measures[cells],
                                 full=grid, full_index=index)
    w = _even_couplings(kw.table)
    w *= orbit[:, None]
    return FoldedWeights(grid=folded, W=w, T=orbit * kw.T, s=kw.s, p=kw.p)


# ----------------------------------------------------------------------
# assembly
# ----------------------------------------------------------------------

def _assemble_1d(grid: Grid, ps: float) -> tuple[np.ndarray, float]:
    n = grid.ncells
    beta = 1.0 + ps
    h = grid.spacing[0]

    # pair weights depend only on the cell offset k on a uniform grid:
    # c h^gamma ((k+1)^gamma - 2 k^gamma + (k-1)^gamma), with the second
    # difference in expm1/log1p form so that it does not cancel for large k
    gamma = 2.0 - beta
    c = 1.0 / ((1.0 - beta) * (2.0 - beta))
    table = np.zeros(n)
    if n > 1:
        table[1] = c * h ** gamma * (2.0 ** gamma - 2.0)
        k = np.arange(2, n, dtype=float)
        table[2:] = c * (k * h) ** gamma * (np.expm1(gamma * np.log1p(1.0 / k))
                                            + np.expm1(gamma * np.log1p(-1.0 / k)))
    # T = 2 h^(1-ps) / (ps (1-ps)): both tails of one cell, each the integral
    # over the cell of d^(-ps)/ps.  ps is read back from beta, as the
    # reference exterior_weight_1d does, so that T equals it to the bit
    ps = beta - 1.0
    tail = h ** (1.0 - ps) / (1.0 - ps)
    return table, (tail + tail) / ps


# Gauss orders compared by the tensor rule of 2D assembly
_GAUSS_ORDERS = (12, 20)
_GAUSS_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _gauss(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre rule on [-1, 1] by Golub-Welsch, without numpy.polynomial."""
    if order not in _GAUSS_CACHE:
        k = np.arange(1.0, order)
        nodes, vecs = np.linalg.eigh(np.diag(k / np.sqrt(4.0 * k * k - 1.0), -1))
        _GAUSS_CACHE[order] = nodes, 2.0 * vecs[0] ** 2
    return _GAUSS_CACHE[order]


def _hat_rule(order: int, panels: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss rule for int_{-1}^{1} f(a) (1 - |a|) da on 2 * panels equal panels.

    The panels split the hat at its kink, each half into `panels` pieces.
    """
    nodes, wts = _gauss(order)
    a = ((np.arange(1 - 2 * panels, 2 * panels, 2)[:, None] + nodes)
         / (2 * panels)).ravel()
    return a, np.tile(wts, 2 * panels) * (0.5 / panels) * (1.0 - np.abs(a))


def _tensor_table(n: int, ratio: float, ps: float, order: int) -> np.ndarray:
    """Tensor Gauss rule on the hat profiles for every offset (di, dj).

    With t = ((di + a) hx, (dj + b) hy) the pair weight of offset (di, dj)
    is hx^(-ps) hy^2 times

        int int (1 - |a|) (1 - |b|) |(di + a, (dj + b) hy/hx)|^(-(2+ps)) da db

    over a, b in [-1, 1], which is what this returns (ratio = hy/hx >= 1).
    On the columns dj <= 1, whose hats along b reach y = 0, the integrand
    varies on the scale 1/ratio in b, so they take ceil(ratio) panels per
    hat half along b; every other hat half is one panel.  Each column block
    refills one buffer for every di, (n - 2) x (2 order)^2 floats, or
    2 x (2 order)^2 x ceil(ratio) on the touching columns.
    """
    a, wa = _hat_rule(order, 1)
    table = np.empty((n, n))
    for cols, panels in ((slice(0, 2), math.ceil(ratio)), (slice(2, n), 1)):
        b, wb = _hat_rule(order, panels)
        y2 = ((np.arange(n)[cols, None] + b) * ratio) ** 2  # (dj, b)
        k = np.empty((y2.shape[0], a.size, b.size))  # (dj, a, b)
        for di in range(n):
            np.add((di + a)[:, None] ** 2, y2[:, None, :], out=k)
            np.power(k, -(1.0 + 0.5 * ps), out=k)
            table[di, cols] = (k @ wb) @ wa
    return table


# how many of the half-cell pairs of two split cells lie at offset component
# delta = -1, 0, 1 from each other along one axis
_SPLIT_COUNT = np.array([1.0, 2.0, 1.0])
_SPLIT_DELTA = np.array([-1, 0, 1])


def _assemble_2d(n: int, hx: float, hy: float,
                 ps: float) -> tuple[np.ndarray, float]:
    if hx > hy:
        # wide cells: the table of the same cells stood upright, transposed
        table, T = _assemble_2d(n, hy, hx, ps)
        return table.T.copy(), T

    # offset table: weight for cell displacement (|di|, |dj|), out to offset
    # 3 for the touching solve.  The tensor rule is singular where the cells
    # touch (|di|, |dj| <= 1), and only there
    coarse, fine = (_tensor_table(max(n, 4), hy / hx, ps, order)
                    for order in _GAUSS_ORDERS)
    coarse[:2, :2] = fine[:2, :2] = 0.0
    bad = np.argwhere(np.abs(fine - coarse) > ASSEMBLY_REL_TOL * fine)
    if len(bad):
        di, dj = bad[0]
        raise KernelError(
            f"2D kernel tensor rule: Gauss orders {_GAUSS_ORDERS[0]} and "
            f"{_GAUSS_ORDERS[1]} disagree beyond {ASSEMBLY_REL_TOL:g} at offset "
            f"({di}, {dj}) on cells of aspect ratio {hy / hx:g}")
    table = hx ** (-ps) * hy ** 2 * fine

    def split_sum(di: int, dj: int) -> float:
        # the half-cell sum of offset (di, dj); touching entries still read 0
        rows = np.abs(2 * di + _SPLIT_DELTA)
        cols = np.abs(2 * dj + _SPLIT_DELTA)
        return _SPLIT_COUNT @ table[np.ix_(rows, cols)] @ _SPLIT_COUNT

    # the touching weights, (1, 1) first: it is the only touching term of
    # its own split sum, and (1, 1) twice plus itself twice are the touching
    # terms of the sums of (1, 0) and (0, 1)
    rho = 2.0 ** (ps - 2.0)
    rest = [split_sum(*o) for o in ((1, 1), (1, 0), (0, 1))]
    table[1, 1] = rho * rest[0] / (1.0 - rho)
    table[1, 0] = rho * (rest[1] + 2.0 * table[1, 1]) / (1.0 - 2.0 * rho)
    table[0, 1] = rho * (rest[2] + 2.0 * table[1, 1]) / (1.0 - 2.0 * rho)
    scale = 2.0 ** ps
    return table[:n, :n].copy(), scale / (scale - 1.0) * table[:2, :2].sum()


def assemble(grid: Grid, params) -> KernelWeights:
    """Assemble the offset table and T of an unfolded grid: weights on it.

    params supplies s and p (ProblemParams or anything with .s and .p).
    Deterministic: repeated assembly yields bit-identical arrays.
    """
    s, p = float(params.s), float(params.p)
    ps = p * s
    if grid.dim == 1:
        table, T = _assemble_1d(grid, ps)
    else:
        table, T = _assemble_2d(grid.n, *grid.spacing, ps)
    return KernelWeights(grid=grid, table=table, T=T, s=s, p=p)


def save_weights(path, kw: KernelWeights, grid: Grid) -> None:
    """Dump the offset table and T with the key of kw.grid, which grid must be."""
    if grid.full is not None or (grid.domain, grid.n) != (kw.grid.domain, kw.grid.n):
        raise GridMismatchError("weights saved for a grid other than their own")
    # the file is path as given: np.savez appends ".npz" to a name, not a file
    with open(path, "wb") as fh:
        np.savez(fh, table=kw.table, T=kw.T,
                 key=np.array([float(grid.dim), kw.s, kw.p, float(grid.n)]),
                 dom_lo=np.asarray(grid.domain.lo),
                 dom_hi=np.asarray(grid.domain.hi))


def load_weights(path, grid: Grid, params) -> KernelWeights:
    """Load cached weights, checking the (dim, s, p, domain, n) key and arrays.

    The table must be finite, nonnegative and 0 at offset 0, and T finite
    and positive.  A file that cannot be read as a weights archive raises
    KernelError naming the file, like a cache built for another problem.
    """
    try:
        with np.load(path) as data:
            key, lo, hi, table, T = (data[k] for k in
                                     ("key", "dom_lo", "dom_hi", "table", "T"))
    # TypeError: np.load returned a bare array, which is no archive
    except (OSError, EOFError, ValueError, KeyError, TypeError,
            zipfile.BadZipFile) as exc:
        raise KernelError(f"weight cache {path} cannot be read: {exc}") from exc
    want = np.array([float(grid.dim), float(params.s), float(params.p), float(grid.n)])
    if (key.shape != want.shape or not np.array_equal(key, want)
            or not np.array_equal(lo, np.asarray(grid.domain.lo))
            or not np.array_equal(hi, np.asarray(grid.domain.hi))
            or table.shape != (grid.n,) * grid.dim or T.shape != ()
            or table.dtype != float or T.dtype != float
            or not (np.isfinite(table).all() and table.min() >= 0.0
                    and table.flat[0] == 0.0 and 0.0 < T < np.inf)):
        raise KernelError(f"weight cache {path} does not match the requested problem")
    return KernelWeights(grid=grid, table=table, T=float(T),
                         s=float(params.s), p=float(params.p))
