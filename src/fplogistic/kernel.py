"""Kernel weights for the nonlocal cell energy.

For cells C_i the discrete energy needs the pair weights

    W_ij = int_{C_i} int_{C_j} |x - y|^(-(N + p*s)) dy dx,   i != j,

and the exterior weights

    V_i = int_{C_i} int_{complement of the domain} |x - y|^(-(N + p*s)) dy dx.

On a uniform grid W_ij depends only on the cell offset, so the kernel is
stored as its offset table (Toeplitz in 1D, block-Toeplitz in 2D), one pair
weight per offset (|di|, |dj|), and T: the integral of the kernel over
C_i x (R^N minus C_i), the same number on every cell.  The cells tile the
domain, so V_i = T - sum_j W_ij.  The dense W and V are derived on first use.
So is K^-1, the inverse of the p = 2 Hessian K = 2 (T I - W): W_ij depends
on |i - j| per axis, so K splits into 2^dim blocks of about m / 2^dim cells
under the flips of the axes, read off the table and inverted one by one.

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

import functools
import itertools
import math
import zipfile
from dataclasses import dataclass

import numpy as np

from .domain import Grid, GridError

__all__ = [
    "KernelError",
    "KernelWeights",
    "assemble",
    "save_weights",
    "load_weights",
]

# Cap on the dense view W: ncells**2 weights at 8 bytes each (4096 cells = 128 MiB).
MAX_DENSE_CELLS = 4096
# Relative agreement of two Gauss orders required of the 2D tensor rule.
ASSEMBLY_REL_TOL = 1e-7


class KernelError(RuntimeError):
    """The kernel weights could not be assembled to tolerance or loaded."""


@dataclass(frozen=True, eq=False)
class KernelWeights:
    """The kernel as its offset table and T, with a parameter snapshot."""

    table: np.ndarray  # (n,) or (n, n): weight per cell offset, 0 at offset 0
    T: float           # kernel over one cell against its complement
    dim: int
    s: float
    p: float

    @property
    def ncells(self) -> int:
        return self.table.size

    @property
    def ps(self) -> float:
        return self.p * self.s

    @functools.cached_property
    def W(self) -> np.ndarray:
        """(m, m) pair weights W_ij = table[|i - j| per axis]."""
        n = self.table.shape[0]
        d = np.abs(np.arange(n)[:, None] - np.arange(n))
        idx = (d,) if self.dim == 1 else (d[:, None, :, None], d[None, :, None, :])
        return self.table[idx].reshape(self.ncells, -1)

    @functools.cached_property
    def V(self) -> np.ndarray:
        """(m,) exterior weights V_i = T - sum_j W_ij."""
        return self.T - self.W.sum(axis=1)

    @functools.cached_property
    def k_inverse(self) -> np.ndarray:
        """Inverse of K = 2 (T I - W), formed on first use from the table.

        K is the Hessian of E/2 for p = 2, the same K the p = 2 operator
        applies (its diagonal 2 (sum_j W_ij + V_i) is 2T by construction).
        W_ij depends on |i - j| along each axis, so K commutes with the flip
        J: i -> n-1-i of every axis.  It maps the functions that are even or
        odd under each flip to functions of the same parity (Cantoni &
        Butler 1976), so inverting K takes 2^dim inversions of its parity
        blocks, of about m / 2^dim cells each, which ``_parity_block`` reads
        off the table.  Neither K nor W is formed.

        The block inverses give the rows of K^-1 on the first half of every
        axis, written into one m x m output.  Per axis, block column c < n/2
        is column c of K^-1 and, times the block's sign, its mirror column
        n-1-c, with weight 1/2; the middle column of an odd n is its own
        mirror and has weight 1.  The other rows follow from
        K^-1[J a, J c] = K^-1[a, c], one axis at a time.  The inverse lives
        exactly as long as the weights.
        """
        n, dim = self.table.shape[0], self.dim
        h, k = (n + 1) // 2, n // 2  # half-axis cells of even, odd functions
        out = np.zeros((n,) * (2 * dim))
        for signs in itertools.product((1.0, -1.0), repeat=dim):
            sizes = tuple(h if sign > 0 else k for sign in signs)
            if not all(sizes):
                continue  # one cell per axis: no function is odd
            inv = np.linalg.inv(_parity_block(self.table, self.T, signs))
            inv = inv.reshape(sizes * 2)
            # per axis: (block columns, columns of K^-1, weight)
            halves = [((slice(k), slice(k), 0.5),
                       (slice(k), slice(n - 1, h - 1, -1), 0.5 * sign))
                      + (((slice(k, h), slice(k, h), 1.0),) if size > k else ())
                      for size, sign in zip(sizes, signs)]
            rows = out[tuple(slice(size) for size in sizes)]
            for pieces in itertools.product(*halves):
                src, dst, weight = zip(*pieces)
                rows[(Ellipsis,) + dst] += math.prod(weight) * inv[(Ellipsis,) + src]
            del inv  # before the next block is built
        # rows n-1-a from rows a, last axis first: each copy then reads rows
        # already filled, and its source and target occupy disjoint ranges
        # of memory, so numpy copies without a temporary
        flip = ((slice(None, None, -1),) + (slice(None),) * (dim - 1)
                + (slice(None, None, -1),))
        for axis in reversed(range(dim)):
            for lead in np.ndindex(*(h,) * axis):
                rows = out[lead]
                rows[h:] = rows[:k][flip]
        return out.reshape(self.ncells, self.ncells)


def _parity_block(table: np.ndarray, T: float,
                  signs: tuple[float, ...]) -> np.ndarray:
    """K on the functions with the given parity (+1 even, -1 odd) per axis.

    Such a function is fixed by its values on the first half of every axis,
    ceil(n/2) cells for +1 and floor(n/2) for -1, and K maps it to one with
    the same parity.  Per axis the coupling of cells a and b of the half is
    table[|a - b|] + sign table[n-1-a-b], the second term the mirror image
    of b, except that an odd n's middle cell is its own mirror and counts
    once.  In 2D the per-axis terms multiply out over the (x, y) offsets.
    Returns 2 T I - 2 (those couplings), indexed by the cells of the half.
    """
    n = table.shape[0]
    block = table
    for axis, sign in enumerate(signs):
        # block axes so far: (row, column) per folded axis, then the rest
        i = np.arange((n + 1) // 2 if sign > 0 else n // 2)
        mirror = np.take(block, n - 1 - i[:, None] - i, axis=2 * axis)
        mirror *= sign
        # an odd n's middle column is its own mirror image: count it once
        mirror[(slice(None),) * (2 * axis + 1) + (slice(n // 2, None),)] = 0.0
        mirror += np.take(block, np.abs(i[:, None] - i), axis=2 * axis)
        block = mirror
    dim = len(signs)
    size = math.prod(block.shape[::2])
    k = block.transpose(*range(0, 2 * dim, 2), *range(1, 2 * dim, 2))
    k = k.reshape(size, size)
    k *= -2.0
    k.flat[::size + 1] += 2.0 * T
    return k


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
    hat half along b; every other hat half is one panel.  Rows over di keep
    every temporary at n x (2 order)^2, or 2 x (2 order)^2 x ceil(ratio).
    """
    a, wa = _hat_rule(order, 1)
    table = np.empty((n, n))
    for cols, panels in ((slice(0, 2), math.ceil(ratio)), (slice(2, n), 1)):
        b, wb = _hat_rule(order, panels)
        y2 = ((np.arange(n)[cols, None] + b) * ratio) ** 2  # (dj, b)
        for di in range(n):
            k = (di + a)[:, None] ** 2 + y2[:, None, :]  # (dj, a, b)
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
    """Assemble the offset table and T for a grid.

    params supplies s and p (ProblemParams or anything with .s and .p).
    Deterministic: repeated assembly yields bit-identical arrays.
    """
    s, p = float(params.s), float(params.p)
    ps = p * s
    if grid.ncells > MAX_DENSE_CELLS:
        raise GridError(
            f"grid has {grid.ncells} cells; dense weights capped at "
            f"{MAX_DENSE_CELLS} cells")
    if grid.dim == 1:
        table, T = _assemble_1d(grid, ps)
    else:
        table, T = _assemble_2d(grid.n, *grid.spacing, ps)
    return KernelWeights(table=table, T=T, dim=grid.dim, s=s, p=p)


def save_weights(path, kw: KernelWeights, grid: Grid) -> None:
    """Dump the offset table and T with their identifying key."""
    np.savez(
        path,
        table=kw.table,
        T=kw.T,
        key=np.array([float(kw.dim), kw.s, kw.p, float(grid.n)]),
        dom_lo=np.asarray(grid.domain.lo),
        dom_hi=np.asarray(grid.domain.hi),
    )


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
    return KernelWeights(table=table, T=float(T), dim=grid.dim,
                         s=float(params.s), p=float(params.p))
