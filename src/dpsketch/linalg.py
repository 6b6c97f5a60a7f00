"""Symmetric positive definite systems stored as lower-triangle panels.

The ridge system G + lam I is symmetric, and its Cholesky factor reads
and writes only the lower triangle, so only that triangle is stored:
as column panels PANEL wide, panel k holding rows starts[k]..m of its
columns as one Fortran-order array, its diagonal square on top and the
rows below it underneath (the layout of the rectangular full packed
format of Gustavson, Wasniewski, Dongarra and Langou, ACM TOMS 2010,
cut into panels).  The factor overwrites the storage, leaf inverses
included; it and every workspace hold one dtype, float64 or float32.
"""

from __future__ import annotations

import numpy as np

# Cholesky blocking: leaves stay under 100 columns, the order below which
# OpenBLAS's potrf runs unblocked on one thread; panels are PANEL columns
# wide and are brought up to date from their left in PANEL-row blocks.
LEAF = 96
PANEL = 576


class LowerPanels:
    """The lower triangle of a symmetric m x m matrix in column panels.

    Panel k covers columns p0..p0 + w, with p0 = starts[k] and w = PANEL
    but for the last panel; panels[k] is the (m - p0, w) Fortran-order
    array of its rows p0..m, whose top w rows are its diagonal square.
    Entries above the diagonal of a square are not part of the matrix:
    nothing reads them, and store and cholesky_in_place may leave any
    values there; a factor's leaf blocks hold inverses (see
    cholesky_in_place).  This module is the only one that indexes the storage;
    the feature maps write G through store.  Every array has the dtype
    given to the constructor.
    """

    def __init__(self, m: int, dtype=np.float64):
        """The zero matrix of order m, stored as dtype."""
        self.m = m
        self.dtype = np.dtype(dtype)
        self.starts = list(range(0, m, PANEL))
        self.panels = [np.zeros((m - p0, min(PANEL, m - p0)), self.dtype, "F")
                       for p0 in self.starts]
        self.norm_inf = None  # ||A||_inf of the matrix its writer stored

    def store(self, r0: int, c0: int, block: np.ndarray) -> None:
        """Write the dense block at rows r0.. and columns c0.. of the
        matrix, rounded to the storage dtype.  Its rows above a panel's
        first row are dropped, so every entry on or below the diagonal is
        kept, and any above it land where nothing reads them."""
        r1, c1 = r0 + block.shape[0], c0 + block.shape[1]
        for k in range(c0 // PANEL, -(-c1 // PANEL)):  # the panels it spans
            p0, X = self.starts[k], self.panels[k]
            lo, hi, top = max(c0, p0), min(c1, p0 + X.shape[1]), max(r0, p0)
            if top < r1:
                X[top - p0:r1 - p0, lo - p0:hi - p0] = \
                    block[top - r0:, lo - c0:hi - c0]

    def divide(self, n) -> None:  # every entry by n, in the storage dtype
        for X in self.panels:
            X /= self.dtype.type(n)

    @property
    def nbytes(self) -> int:
        return sum(X.nbytes for X in self.panels)

    def diagonal(self) -> np.ndarray:
        return np.concatenate([np.diagonal(X) for X in self.panels])

    def set_diagonal(self, values: np.ndarray) -> None:
        for p0, X in zip(self.starts, self.panels):
            w = np.arange(X.shape[1])
            X[w, w] = values[p0:p0 + w.size]

    def copy_from(self, other: "LowerPanels") -> None:
        """Overwrite this matrix with other, of the same order."""
        for X, Y in zip(self.panels, other.panels):
            np.copyto(X, Y)

    def dense(self) -> np.ndarray:
        """The full symmetric (m, m) matrix, of the storage dtype."""
        out = np.zeros((self.m, self.m), self.dtype)
        for p0, X in zip(self.starts, self.panels):
            out[p0:, p0:p0 + X.shape[1]] = X
        out = np.tril(out)
        return out + np.tril(out, -1).T


def _row_blocks(n: int):
    """(r0, r1) of the PANEL-row blocks of n rows."""
    return [(r0, min(r0 + PANEL, n)) for r0 in range(0, n, PANEL)]


def cholesky_in_place(A: LowerPanels) -> LowerPanels:
    """Overwrite the symmetric positive definite A with its Cholesky
    factor L, A = L L^T, in the same storage, and return A; the diagonal
    block of each LEAF-wide leaf holds its L^-T, not its L.

    Left-looking, one panel at a time: the panel is updated from every
    panel to its left by matmuls PANEL rows at a time from its first row,
    so the first block is its square; then its leaves are factored in
    turn by np.linalg.cholesky and applied below the diagonal through
    L^-T (X L^T = B as X = B L^-T), under the square PANEL rows at a
    time.  L^-T then overwrites L, which no later step reads, for
    cholesky_solve.  np.linalg.cholesky reads only a leaf's lower
    triangle, so the updates run over whole squares and leave values
    above the diagonal that nothing reads.  Workspaces, of A's dtype and
    t = min(PANEL, m - PANEL) rows: the update block (t x PANEL) and the
    leaf products' C-order buffer (t x LEAF).
    The factor does not depend on the BLAS thread count: the leaves are
    factored unblocked on one thread, the leaf updates are LEAF wide and
    a multiple of LEAF deep, and the panel updates PANEL wide and PANEL
    deep (a narrow last panel of w columns takes the last w of PANEL
    rows that end at its last row), shapes whose entries OpenBLAS rounds
    the same on 1 and 2 threads; at some other widths and depths it does
    not.  Splitting them by rows, into C-order outputs, keeps that.
    Raises np.linalg.LinAlgError if a leaf is not positive definite; A
    is then partly overwritten.
    """
    tall, dtype = min(PANEL, A.m - PANEL), A.dtype
    work = np.empty((tall, PANEL), dtype, "F") if tall > 0 else None
    leaf_out = np.empty((tall, LEAF), dtype) if tall > 0 else None
    for k, panel in enumerate(A.panels):
        p0, w = A.starts[k], panel.shape[1]
        X, B = panel[:w], panel[w:]  # the square, the rows below it
        for q0, Q in zip(A.starts[:k], A.panels[:k]):
            rows = Q[p0 - q0:]  # rows p0..m of the left panel
            cols = Q[p0 - q0 + w - PANEL:p0 - q0 + w]  # PANEL rows to p0 + w
            for r0, r1 in _row_blocks(rows.shape[0]):
                out = np.matmul(rows[r0:r1], cols.T, out=work[:r1 - r0])
                panel[r0:r1] -= out[:, PANEL - w:]
        for j0 in range(0, w, LEAF):
            j1 = min(j0 + LEAF, w)
            left = X[j0:j1, :j0]
            L = np.linalg.cholesky(X[j0:j1, j0:j1] - left @ left.T)
            X[j1:, j0:j1] -= X[j1:, :j0] @ left.T
            # below the square, the panel's own columns left of the leaf
            for r0, r1 in _row_blocks(B.shape[0]):
                B[r0:r1, j0:j1] -= np.matmul(
                    B[r0:r1, :j0], left.T, out=leaf_out[:r1 - r0, :j1 - j0])
            X[j0:j1, j0:j1] = inv = np.linalg.inv(L).T
            X[j1:, j0:j1] = X[j1:, j0:j1] @ inv
            for r0, r1 in _row_blocks(B.shape[0]):
                B[r0:r1, j0:j1] = np.matmul(
                    B[r0:r1, j0:j1], inv, out=leaf_out[:r1 - r0, :j1 - j0])
    return A


def cholesky_solve(L: LowerPanels, b: np.ndarray) -> np.ndarray:
    """Solve L L^T x = b for the Cholesky factor L (as cholesky_in_place
    leaves it); b is (m,) or (m, t), and x has L's dtype.  Leaf by leaf,
    like the factorization: each leaf is solved by a product with the
    inverse in its diagonal block, the rest of x updated by a matmul
    over the leaf's columns (forward) or rows (backward, panel by panel
    to its left).  It allocates nothing but x and the products' results."""
    x = np.array(b, dtype=L.dtype)
    for k, panel in enumerate(L.panels):  # L y = b
        p0, w = L.starts[k], panel.shape[1]
        for j0 in range(0, w, LEAF):
            j1 = min(j0 + LEAF, w)
            y = x[p0 + j0:p0 + j1]
            y[...] = panel[j0:j1, j0:j1].T @ y
            x[p0 + j1:p0 + w] -= panel[j1:w, j0:j1] @ y
            x[p0 + w:] -= panel[w:, j0:j1] @ y
    for k in reversed(range(len(L.panels))):  # L^T x = y
        p0, panel = L.starts[k], L.panels[k]
        w = panel.shape[1]
        for j0 in reversed(range(0, w, LEAF)):
            j1 = min(j0 + LEAF, w)
            y = x[p0 + j0:p0 + j1]
            y[...] = panel[j0:j1, j0:j1] @ y
            x[p0:p0 + j0] -= panel[j0:j1, :j0].T @ y
            for q0, Q in zip(L.starts[:k], L.panels[:k]):
                x[q0:q0 + PANEL] -= Q[p0 + j0 - q0:p0 + j1 - q0].T @ y
    return x
