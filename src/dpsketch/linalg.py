"""Symmetric positive definite systems stored as lower-triangle panels.

The ridge system G + lam I is symmetric, and its Cholesky factor reads
and writes only the lower triangle, so only that triangle is stored:
as column panels PANEL wide, panel k holding rows starts[k]..m of its
columns (the layout of the rectangular full packed format of Gustavson,
Wasniewski, Dongarra and Langou, ACM TOMS 2010, cut into panels).  Each
panel's rows below its diagonal square are one Fortran-order block; the
square itself is held from its diagonal down in LEAF-wide strips, so
only the strips' own top squares keep entries above the diagonal (in a
system of at most two panels each square is held whole).  The storage,
the factor and every workspace hold one dtype, float64 or float32.
"""

from __future__ import annotations

import numpy as np

# Cholesky blocking: leaves stay under 100 columns, the order below which
# OpenBLAS's potrf runs unblocked on one thread; panels are PANEL columns
# wide and are brought up to date from their left in PANEL-row blocks.
LEAF = 96
PANEL = 576


def in_strips(m: int) -> bool:
    """Whether a system of order m holds its squares in strips: more than
    two panels, where the PANEL x PANEL workspace costs less than what
    the strips save."""
    return m > 2 * PANEL


class LowerPanels:
    """The lower triangle of a symmetric m x m matrix in column panels.

    Panel k covers columns starts[k]..starts[k] + w, with w = PANEL but
    for the last panel.  strips[k] holds its w x w diagonal square: strip
    j is the (w - j0, j1 - j0) Fortran-order array of rows j0..w of the
    square's columns j0..j1, for LEAF-wide column ranges (one strip of
    width w in a system of at most two panels, where a square workspace
    would outweigh what the strips save).  below[k] is the
    (m - starts[k] - w, w) Fortran-order array of the panel's rows under
    its square.  Entries above the diagonal of a strip's top square are
    not part of the matrix: nothing reads them, and store and
    cholesky_in_place may leave any values there.  This module is the
    only one that indexes the storage; the feature maps write G through
    store.  Every array has the dtype given to the constructor.
    """

    def __init__(self, m: int, dtype=np.float64):
        """The zero matrix of order m, stored as dtype."""
        self.m = m
        self.dtype = np.dtype(dtype)
        self.starts = list(range(0, m, PANEL))
        strip = LEAF if in_strips(m) else PANEL
        # per panel, (first row, first column, array) of each stored array
        self._pieces = []
        for p0 in self.starts:
            w = min(PANEL, m - p0)
            self._pieces.append(
                [(p0 + j0, p0 + j0,
                  np.zeros((w - j0, min(strip, w - j0)), self.dtype, "F"))
                 for j0 in range(0, w, strip)]
                + [(p0 + w, p0, np.zeros((m - p0 - w, w), self.dtype, "F"))])
        self.strips = [[X for _, _, X in pieces[:-1]]
                       for pieces in self._pieces]
        self.below = [pieces[-1][2] for pieces in self._pieces]
        self.inverses = None  # per panel, L^-T of each leaf of a factor

    def _all_pieces(self):
        return [piece for pieces in self._pieces for piece in pieces]

    def store(self, r0: int, c0: int, block: np.ndarray) -> None:
        """Write the dense block at rows r0.. and columns c0.. of the
        matrix, rounded to the storage dtype.  Its rows above a strip's
        first row are dropped, so every entry on or below the diagonal is
        kept, and any above it land where nothing reads them."""
        r1, c1 = r0 + block.shape[0], c0 + block.shape[1]
        for k in range(c0 // PANEL, -(-c1 // PANEL)):  # the panels it spans
            pieces = self._pieces[k]
            if r0 >= pieces[-1][0]:  # below the square
                pieces = pieces[-1:]
            for t, c, X in pieces:
                lo, hi = max(c0, c), min(c1, c + X.shape[1])
                top, bottom = max(r0, t), min(r1, t + X.shape[0])
                if lo < hi and top < bottom:
                    X[top - t:bottom - t, lo - c:hi - c] = \
                        block[top - r0:bottom - r0, lo - c0:hi - c0]

    @property
    def nbytes(self) -> int:
        return sum(X.nbytes for _, _, X in self._all_pieces())

    def diagonal(self) -> np.ndarray:
        return np.concatenate([np.diagonal(S) for strips in self.strips
                               for S in strips])

    def set_diagonal(self, values: np.ndarray) -> None:
        j0 = 0
        for strips in self.strips:
            for S in strips:
                w = np.arange(S.shape[1])
                S[w, w] = values[j0:j0 + w.size]
                j0 += w.size

    def copy_from(self, other: "LowerPanels") -> None:
        """Overwrite this matrix with other, of the same order."""
        for (_, _, X), (_, _, Y) in zip(self._all_pieces(),
                                          other._all_pieces()):
            np.copyto(X, Y)

    def dense(self) -> np.ndarray:
        """The full symmetric (m, m) matrix, of the storage dtype."""
        out = np.zeros((self.m, self.m), self.dtype)
        for t, c, X in self._all_pieces():
            out[t:t + X.shape[0], c:c + X.shape[1]] = X
        out = np.tril(out)
        return out + np.tril(out, -1).T

    def _square_workspace(self) -> np.ndarray | None:
        """A PANEL x PANEL workspace to unpack squares into, or None if
        every square is held whole."""
        if all(len(strips) == 1 for strips in self.strips):
            return None
        return np.zeros((PANEL, PANEL), self.dtype, "F")

    def _square(self, k: int, work: np.ndarray | None) -> np.ndarray:
        """Panel k's diagonal square: its one strip itself, or its strips
        copied into the top left corner of work (above each strip, work
        keeps what it held)."""
        strips = self.strips[k]
        if len(strips) == 1:
            return strips[0]
        w = strips[0].shape[0]
        X, j0 = work[:w, :w], 0
        for S in strips:
            X[j0:, j0:j0 + S.shape[1]] = S
            j0 += S.shape[1]
        return X

    def _keep_square(self, k: int, X: np.ndarray) -> None:
        """Copy the square X, as _square gave it, back into panel k."""
        strips = self.strips[k]
        if len(strips) == 1:  # X is the strip itself
            return
        j0 = 0
        for S in strips:
            S[...] = X[j0:, j0:j0 + S.shape[1]]
            j0 += S.shape[1]


def _row_blocks(n: int):
    """(r0, r1) of the PANEL-row blocks of n rows."""
    return [(r0, min(r0 + PANEL, n)) for r0 in range(0, n, PANEL)]


def cholesky_in_place(A: LowerPanels) -> LowerPanels:
    """Overwrite the symmetric positive definite A with its Cholesky
    factor L, A = L L^T, in the same storage, and return A.

    Left-looking, one panel at a time: the panel is updated from every
    panel to its left by matmuls PANEL rows at a time from its first row,
    so the first block is its square; then its LEAF-wide blocks are
    factored in turn by np.linalg.cholesky and applied below the diagonal
    through the leaf's inverse (X L^T = B as X = B L^-T), under the
    square PANEL rows at a time.  np.linalg.cholesky reads only a leaf's
    lower triangle, so the updates run over whole squares and leave
    values above the diagonal that nothing reads.
    Each leaf's inverse L^-T is kept in A.inverses, of A's dtype (about
    LEAF * m entries), for cholesky_solve.
    Workspaces, of A's dtype, with t = min(PANEL, m - PANEL) rows: the
    update block (t x PANEL), the leaf products' C-order buffer
    (t x LEAF), a PANEL x PANEL square to unpack strips into (only when a
    system has more than two panels) and, for a narrow last panel, a
    PANEL x PANEL zero-padded copy of its left panels' rows.
    The factor does not depend on the BLAS thread count: the leaves are
    factored unblocked on one thread, the leaf updates are LEAF wide and
    a multiple of LEAF deep, and the panel updates PANEL wide and PANEL
    deep, shapes whose entries OpenBLAS rounds the same on 1 and 2
    threads; at some other widths and depths it does not.  Splitting
    them by rows, into C-order outputs, keeps that.  Raises
    np.linalg.LinAlgError if a leaf is not positive definite; A is then
    partly overwritten.
    """
    tall, dtype = min(PANEL, A.m - PANEL), A.dtype
    A.inverses = [[] for _ in A.starts]
    work = np.empty((tall, PANEL), dtype, "F") if tall > 0 else None
    leaf_out = np.empty((tall, LEAF), dtype) if tall > 0 else None
    square = A._square_workspace()
    for k, B in enumerate(A.below):
        p0, X = A.starts[k], A._square(k, square)
        w = X.shape[1]
        pad = (np.zeros((PANEL, PANEL), dtype, "F") if k and w < PANEL
               else None)
        for q0, Q in zip(A.starts[:k], A.below[:k]):
            rows = Q[p0 - q0 - PANEL:]  # rows p0..m of the left panel
            cols = rows[:w]  # its rows of this panel's columns
            if pad is not None:
                pad[:w] = cols
                cols = pad
            for r0, r1 in _row_blocks(rows.shape[0]):
                out = np.matmul(rows[r0:r1], cols.T, out=work[:r1 - r0])
                if r0:
                    B[r0 - w:r1 - w] -= out[:, :w]
                else:  # the first block is the square
                    X -= out[:, :w]
        for j0 in range(0, w, LEAF):
            j1 = min(j0 + LEAF, w)
            left = X[j0:j1, :j0]
            L = np.linalg.cholesky(X[j0:j1, j0:j1] - left @ left.T)
            X[j1:w, j0:j1] -= X[j1:w, :j0] @ left.T
            # below the square, the panel's own columns left of the leaf
            for r0, r1 in _row_blocks(B.shape[0]):
                B[r0:r1, j0:j1] -= np.matmul(
                    B[r0:r1, :j0], left.T, out=leaf_out[:r1 - r0, :j1 - j0])
            X[j0:j1, j0:j1] = L
            inv = np.linalg.inv(L).T
            A.inverses[k].append(inv)
            X[j1:w, j0:j1] = X[j1:w, j0:j1] @ inv
            for r0, r1 in _row_blocks(B.shape[0]):
                B[r0:r1, j0:j1] = np.matmul(
                    B[r0:r1, j0:j1], inv, out=leaf_out[:r1 - r0, :j1 - j0])
        A._keep_square(k, X)
    return A


def cholesky_solve(L: LowerPanels, b: np.ndarray) -> np.ndarray:
    """Solve L L^T x = b for the Cholesky factor L (as cholesky_in_place
    leaves it); b is (m,) or (m, t), and x has L's dtype.  Leaf by leaf,
    like the factorization: each leaf is solved by a product with its
    kept inverse and the rest of x updated by a matmul over the leaf's
    columns (forward) or its rows (backward, panel by panel to its
    left).  Each panel's square is unpacked into one reused
    PANEL x PANEL workspace unless it is held whole."""
    x = np.array(b, dtype=L.dtype)
    square = L._square_workspace()
    for k, B in enumerate(L.below):  # L y = b
        p0, X = L.starts[k], L._square(k, square)
        w = X.shape[1]
        for j0 in range(0, w, LEAF):
            j1 = min(j0 + LEAF, w)
            y = x[p0 + j0:p0 + j1]
            y[...] = L.inverses[k][j0 // LEAF].T @ y
            x[p0 + j1:p0 + w] -= X[j1:, j0:j1] @ y
            x[p0 + w:] -= B[:, j0:j1] @ y
    for k in reversed(range(len(L.below))):  # L^T x = y
        p0, X = L.starts[k], L._square(k, square)
        w = X.shape[1]
        for j0 in reversed(range(0, w, LEAF)):
            j1 = min(j0 + LEAF, w)
            y = x[p0 + j0:p0 + j1]
            y[...] = L.inverses[k][j0 // LEAF] @ y
            x[p0:p0 + j0] -= X[j0:j1, :j0].T @ y
            for q0, Q in zip(L.starts[:k], L.below[:k]):
                r0 = p0 + j0 - q0 - PANEL  # the leaf's rows in Q
                x[q0:q0 + PANEL] -= Q[r0:r0 + j1 - j0].T @ y
    return x
