"""Symmetric positive definite systems stored as lower-triangle panels.

The ridge system G + lam I is symmetric, and its Cholesky factor reads
and writes only the lower triangle, so only that triangle is stored:
as column panels PANEL wide, panel k holding rows starts[k]..m of its
columns, in Fortran order (the layout of the rectangular full packed
format of Gustavson, Wasniewski, Dongarra and Langou, ACM TOMS 2010,
cut into panels).  That is about half of the m x m square.
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

    panels[k] is the (m - starts[k], w) array of rows starts[k]..m of
    columns starts[k]..starts[k] + w, with w = PANEL but for the last
    panel.  Entries above the diagonal of a panel's top w x w square are
    not part of the matrix: nothing reads them, and store and
    cholesky_in_place may leave any values there.  This module is the
    only one that indexes the panels; the feature maps write G through
    store.
    """

    def __init__(self, m: int):
        """The zero matrix of order m."""
        self.m = m
        self.starts = list(range(0, m, PANEL))
        self.panels = [np.zeros((m - p0, min(PANEL, m - p0)), order="F")
                       for p0 in self.starts]

    def store(self, r0: int, c0: int, block: np.ndarray) -> None:
        """Write the dense block at rows r0.. and columns c0.. of the
        matrix.  Its rows above a panel's first row are dropped, so every
        entry on or below the diagonal is kept, and any above it land
        where nothing reads them."""
        r1, c1 = r0 + block.shape[0], c0 + block.shape[1]
        for k in range(c0 // PANEL, -(-c1 // PANEL)):  # the panels it spans
            p0, X = self.starts[k], self.panels[k]
            lo, hi, top = max(c0, p0), min(c1, p0 + X.shape[1]), max(r0, p0)
            if lo < hi and top < r1:
                X[top - p0:r1 - p0, lo - p0:hi - p0] = \
                    block[top - r0:, lo - c0:hi - c0]

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
        """Overwrite these panels with those of other, of the same order."""
        for X, Y in zip(self.panels, other.panels):
            np.copyto(X, Y)

    def dense(self) -> np.ndarray:
        """The full symmetric (m, m) matrix."""
        out = np.zeros((self.m, self.m))
        for p0, X in zip(self.starts, self.panels):
            out[p0:, p0:p0 + X.shape[1]] = X
        out = np.tril(out)
        return out + np.tril(out, -1).T


def cholesky_in_place(A: LowerPanels) -> LowerPanels:
    """Overwrite the symmetric positive definite A with its Cholesky
    factor L, A = L L^T, in the same panels, and return A.

    Left-looking: each panel is first updated from every panel to its
    left, PANEL rows at a time, by a matmul into one reused workspace;
    then its LEAF-wide blocks are factored in turn by np.linalg.cholesky
    and applied below the diagonal through the leaf's inverse
    (X L^T = B as X = B L^-T).  np.linalg.cholesky reads only a leaf's
    lower triangle, so the updates run over whole squares and leave
    values above the diagonal that nothing reads.
    The factor does not depend on the BLAS thread count: the leaves are
    factored unblocked on one thread, the leaf updates are LEAF wide and
    a multiple of LEAF deep, and the panel updates PANEL wide and PANEL
    deep (a narrow last panel's columns are padded with zeros), shapes
    whose entries OpenBLAS rounds the same on 1 and 2 threads; at some
    other widths and depths it does not.  Raises np.linalg.LinAlgError
    if a leaf is not positive definite; A is then partly overwritten.
    """
    work = np.empty((PANEL, PANEL), order="F") if len(A.panels) > 1 else None
    for k, X in enumerate(A.panels):
        p0, w = A.starts[k], X.shape[1]
        pad = np.zeros((PANEL, PANEL), order="F") if k and w < PANEL else None
        for q0, Q in zip(A.starts[:k], A.panels[:k]):
            rows = Q[p0 - q0:]  # rows p0..m of the left panel's columns
            cols = rows[:w]  # its rows of this panel's columns
            if pad is not None:
                pad[:w] = cols
                cols = pad
            for r0 in range(0, X.shape[0], PANEL):
                r1 = min(r0 + PANEL, X.shape[0])
                X[r0:r1] -= np.matmul(rows[r0:r1], cols.T,
                                      out=work[:r1 - r0])[:, :w]
        for j0 in range(0, w, LEAF):
            j1 = min(j0 + LEAF, w)
            left = X[j0:j1, :j0]
            L = np.linalg.cholesky(X[j0:j1, j0:j1] - left @ left.T)
            X[j1:w, j0:j1] -= X[j1:w, :j0] @ left.T
            # below the panel, the panel's own columns left of the leaf
            X[w:, j0:j1] -= X[w:, :j0] @ left.T
            X[j0:j1, j0:j1] = L
            X[j1:, j0:j1] = X[j1:, j0:j1] @ np.linalg.inv(L).T
    return A


def cholesky_solve(L: LowerPanels, b: np.ndarray) -> np.ndarray:
    """Solve L L^T x = b for the Cholesky factor L (as cholesky_in_place
    leaves it); b is (m,) or (m, t).  Leaf by leaf, like the
    factorization: each leaf is solved on its own and the rest of x
    updated by a matmul over the leaf's columns (forward) or its rows
    (backward, panel by panel to its left)."""
    x = np.array(b, dtype=float)
    panels = list(zip(L.starts, L.panels))
    leaves = [(k, j0, min(j0 + LEAF, X.shape[1]))
              for k, (p0, X) in enumerate(panels)
              for j0 in range(0, X.shape[1], LEAF)]
    for k, j0, j1 in leaves:  # L y = b
        p0, X = panels[k]
        x[p0 + j0:p0 + j1] = np.linalg.solve(np.tril(X[j0:j1, j0:j1]),
                                             x[p0 + j0:p0 + j1])
        x[p0 + j1:] -= X[j1:, j0:j1] @ x[p0 + j0:p0 + j1]
    for k, j0, j1 in reversed(leaves):  # L^T x = y
        p0, X = panels[k]
        x[p0 + j0:p0 + j1] = np.linalg.solve(np.tril(X[j0:j1, j0:j1]).T,
                                             x[p0 + j0:p0 + j1])
        x[p0:p0 + j0] -= X[j0:j1, :j0].T @ x[p0 + j0:p0 + j1]
        for q0, Q in panels[:k]:
            x[q0:q0 + Q.shape[1]] -= \
                Q[p0 + j0 - q0:p0 + j1 - q0].T @ x[p0 + j0:p0 + j1]
    return x
