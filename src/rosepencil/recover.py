"""Recovery of eigenvectors, minimal bases and minimal indices.

Bundles of vectors attached to a pencil carry a `split` describing how
their rows decompose: (m*n, r) at the linearization level, (n, r) at the
system-matrix level, (n,) after projection to G.  Recovery is pure row
selection -- one n-block plus the state-space tail -- followed by a rank
re-certification.
"""

from dataclasses import dataclass, replace

import numpy as np

from . import tuples as tp
from .polymat import PolyMatrix

__all__ = [
    "VectorBundle", "RecoveryDiagnostic",
    "eigenvector_bundle", "recover_from_gfpr", "recover_from_pgf",
    "recover_s_to_g", "shift_minimal_indices",
]


class RecoveryDiagnostic(RuntimeError):
    """Recovered vectors lost rank -- the selection is not certifiable."""


@dataclass(frozen=True)
class VectorBundle:
    """p vectors stored as columns; data is a constant ndarray (rows x p)
    or a PolyMatrix of shape (rows, p) for polynomial bases."""
    data: object
    kind: str                      # "eigenvector-basis" | "minimal-basis"
    side: str                      # "right" | "left"
    degrees: tuple | None = None   # per-column degrees for minimal bases
    split: tuple | None = None     # row segmentation, e.g. (m*n, r)

    @property
    def rows(self):
        return self.data.shape[0]

    @property
    def width(self):
        return self.data.shape[1]

    def eval(self, lam):
        if isinstance(self.data, PolyMatrix):
            return self.data(lam)
        return np.asarray(self.data, dtype=complex)

    def take_rows(self, idx, split=None):
        idx = np.asarray(idx)
        if isinstance(self.data, PolyMatrix):
            data = PolyMatrix(self.data.coeffs[:, idx, :])
        else:
            data = self.data[idx]
        return replace(self, data=data, split=split)


def eigenvector_bundle(pencil, lam, side="right", tol=1e-10):
    """Nullspace basis of the pencil at lam as a bundle; left vectors y
    (y^* L = 0) are stored as columns via the conjugated transpose."""
    from .verify import nullspace_at

    V = pencil.eval(lam)
    M = V if side == "right" else V.conj().T
    Z = nullspace_at(M, tol=tol)
    if Z.shape[1] == 0:
        raise RecoveryDiagnostic(f"{lam} is not an eigenvalue at tolerance {tol}")
    return VectorBundle(data=Z, kind="eigenvector-basis", side=side,
                        split=(pencil.m * pencil.n, pencil.r))


def _recertify(bundle, tol=1e-8, seed=17):
    """Rank check of the selected rows; raises on rank drop."""
    p = bundle.width
    if p == 0:
        return bundle
    if isinstance(bundle.data, PolyMatrix):
        rng = np.random.default_rng(seed)
        best = 0
        for _ in range(3):
            lam = complex(rng.normal(), rng.normal()) * 1.2
            s = np.linalg.svd(bundle.data(lam), compute_uv=False)
            if s.size:
                best = max(best, int(np.sum(s > 1e-9 * max(float(s[0]), 1e-300))))
        rank = best
    else:
        s = np.linalg.svd(bundle.data, compute_uv=False)
        rank = int(np.sum(s > tol * max(float(s[0]), 1e-300))) if s.size else 0
    if rank < p:
        raise RecoveryDiagnostic(
            f"recovered bundle dropped rank: {rank} < {p} columns")
    return bundle


def _select_block(bundle, m, k):
    """Rows of block k (1-based) plus the state-space tail."""
    mn, r = bundle.split
    n = mn // m
    if not 1 <= k <= m:
        raise ValueError(f"block index {k} out of range 1..{m}")
    idx = list(range((k - 1) * n, k * n)) + list(range(mn, mn + r))
    return bundle.take_rows(idx, split=(n, r))


def recover_from_gfpr(bundle, recipe, side=None):
    """System-matrix vectors from GFPR-level vectors: right vectors live
    in block m - c_0(sigma, sigma2), left in block m - i_0(sigma1, sigma),
    both keeping the state-space tail."""
    side = bundle.side if side is None else side
    if side != bundle.side:
        raise ValueError(f"bundle carries {bundle.side} vectors, not {side}")
    k = recipe.m - (recipe.right_index() if side == "right"
                    else recipe.left_index())
    return _recertify(_select_block(bundle, recipe.m, k))


def recover_from_pgf(bundle, omega0, m, side=None):
    """Same row selection for the GFP family, driven by omega0 alone."""
    side = bundle.side if side is None else side
    if side != bundle.side:
        raise ValueError(f"bundle carries {bundle.side} vectors, not {side}")
    k = m - (tp.consecutions(omega0, 0) if side == "right"
             else tp.inversions(omega0, 0))
    return _recertify(_select_block(bundle, m, k))


def recover_s_to_g(bundle):
    """G-level vectors from system-matrix vectors: the top n rows."""
    n = bundle.split[0]
    return _recertify(bundle.take_rows(list(range(n)), split=(n,)))


def _alpha_of(source):
    if hasattr(source, "alpha"):  # GfprRecipe
        return source.alpha()
    omega0, omega1 = source
    omega1 = tuple(omega1)
    m = max(omega1)
    k = omega1.index(m)
    return tp.rev(omega1[:k]) + tuple(omega0) + tp.rev(omega1[k + 1:])


def shift_minimal_indices(indices, source, side="right"):
    """Minimal indices of S from those of the linearization: subtract
    i(alpha) on the right, c(alpha) on the left, where alpha is the
    permutation of {0:m-1} attached to the recipe (or (omega0, omega1)
    pair)."""
    alpha = _alpha_of(source)
    m = len(alpha)
    if sorted(alpha) != list(range(m)):
        raise ValueError(f"index-shift permutation is malformed: {alpha}")
    d = (tp.total_inversions(alpha) if side == "right"
         else tp.total_consecutions(alpha))
    out = tuple(sorted(e - d for e in indices))
    if any(e < 0 for e in out):
        raise RecoveryDiagnostic(
            f"index shift by {d} drives a minimal index negative: {out}")
    return out
