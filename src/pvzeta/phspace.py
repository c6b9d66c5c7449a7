"""Descriptors of the three worked prehomogeneous spaces.

Scalar1D: V = R with p(m) = m under dilations.  Definite: V = R^n with
p(m) = m^T B m for positive definite B, group R_+* x SO(B).  Indefinite:
the same with B of signature (q, n - q) in diagonal form, group
R_+* x SO(B) acting by m -> alpha R m.  The relative invariance
p(rho(g) m) = chi(g) p(m) holds with chi(g) = alpha for the scalar case
and alpha^2 for the quadratic ones.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import quad
from .errors import ConfigError, DomainError
from .report import CheckReport, label_number, parse_spec, worst


@dataclass(frozen=True)
class PVSpace:
    kind: str  # scalar1d | definite | indefinite
    n: int
    B: tuple = None  # row-major entries for quadratic kinds
    q: int = 0

    # built once per space: cached_property writes __dict__, past the frozen __setattr__
    @functools.cached_property
    def Bmat(self):
        if self.B is None:
            return None
        B = np.array(self.B, dtype=float).reshape(self.n, self.n)
        B.flags.writeable = False
        return B

    @property
    def deg_p(self):
        return 1 if self.kind == "scalar1d" else 2

    @property
    def components(self):
        if self.kind == "scalar1d":
            return ("V1", "V2")
        if self.kind == "definite":
            return ("V1",)
        return ("plus", "minus")

    def __repr__(self):
        return self._text

    @functools.cached_property
    def _text(self):
        """The kind, n and q, and B unless it is the kind's default (the
        identity, or diag(1, ..., 1, -1, ..., -1) of signature (q, n - q)):
        its diagonal joined by |, or every entry row by row when B is not
        diagonal; parse_space reads the text inside the parentheses back."""
        if self.kind == "scalar1d":
            return "PVSpace(scalar1d)"
        text = f"PVSpace({self.kind}, n={self.n}, q={self.q}"
        B = self.Bmat
        if not np.array_equal(B, np.diag([1.0] * self.q + [-1.0] * (self.n - self.q))):
            entries = np.diag(B) if np.array_equal(B, np.diag(np.diag(B))) else B.ravel()
            text += ", B=" + "|".join(label_number(v) for v in entries)
        return text + ")"


def scalar1d():
    return PVSpace("scalar1d", 1)


def definite(B=None, n=None):
    if B is None:
        B = np.eye(n)
    B = np.atleast_2d(np.asarray(B, dtype=float))
    n = B.shape[0]
    if not np.allclose(B, B.T) or np.linalg.eigvalsh(B)[0] <= 0:
        raise DomainError("definite kind needs symmetric positive definite B")
    return PVSpace("definite", n, tuple(B.ravel()), q=n)


def indefinite(B=None, q=None, n=None):
    """Indefinite kind; B must be diagonal of signature (q, n - q)
    (general symmetric B should be reduced by congruence first)."""
    if B is None:
        if q is None or n is None:
            raise DomainError("indefinite kind needs B or (q, n)")
        B = np.diag([1.0] * q + [-1.0] * (n - q))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    n = B.shape[0]
    d = np.diag(B)
    if not np.allclose(B, np.diag(d)) or np.any(d == 0.0):
        raise DomainError("indefinite B must be diagonal with nonzero entries")
    qq = int(np.sum(d > 0))
    if q is not None and q != qq:
        raise DomainError(f"B has signature ({qq}, {n - qq}), not ({q}, {n - q})")
    if qq < 1 or qq > n - 1:
        raise DomainError("signature must be genuinely indefinite")
    return PVSpace("indefinite", n, tuple(B.ravel()), q=qq)


@dataclass(frozen=True)
class GroupElement:
    alpha: float
    R: tuple = None  # row-major rotation part for quadratic kinds; None for scalar

    def rot(self, n):
        if self.R is None:
            return np.eye(n)
        return np.array(self.R, dtype=float).reshape(n, n)


# ---------------------------------------------------------------------------


def rel_invariant(space, m):
    """p(m) at a point or at each point of an array: the one evaluator of p on point sets."""
    m = np.asarray(m, dtype=float)
    if space.kind == "scalar1d":
        return float(m) if m.ndim == 0 else m
    B = space.Bmat
    return np.einsum("...i,ij,...j->...", m, B, m) if m.ndim > 1 else float(m @ B @ m)


def character(space, g):
    if space.kind == "scalar1d":
        return g.alpha
    return g.alpha ** 2


def apply_group(space, g, m):
    m = np.asarray(m, dtype=float)
    if space.kind == "scalar1d":
        return g.alpha * m
    return g.alpha * (g.rot(space.n) @ m)


def check_relative_invariance(space, g, m, tol=1e-10):
    pm = rel_invariant(space, m)
    lhs = rel_invariant(space, apply_group(space, g, m))
    rhs = character(space, g) * pm
    denom = max(1.0, abs(pm))
    # normalize the residual as specified: |p(gm) - chi p(m)| / max(1, |p(m)|)
    return CheckReport(
        check="relative-invariance",
        params={"space": repr(space), "alpha": g.alpha, "m": list(np.atleast_1d(m))},
        lhs=lhs,
        rhs=rhs,
        tolerance=tol,
        anchor="EqE",
        residual=abs(lhs - rhs) / denom,
    )


def _half_powers(B):
    """(B^{1/2}, B^{-1/2}) of a symmetric positive definite B, from one
    eigendecomposition."""
    evals, evecs = np.linalg.eigh(B)
    root = np.sqrt(evals)
    return evecs @ np.diag(root) @ evecs.T, evecs @ np.diag(1.0 / root) @ evecs.T


def sample_group(space, count, seed):
    """Seeded group elements: log alpha uniform in [-2, 2]; rotation part
    built to preserve B exactly (up to roundoff).  The draws are taken one
    element at a time, in the order of the stream; the rotations are then
    built in one stacked call per step."""
    if count < 0:
        raise DomainError("count must be nonnegative")
    rng = np.random.default_rng(seed)
    if space.kind == "scalar1d":
        return [GroupElement(float(np.exp(rng.uniform(-2.0, 2.0)))) for _ in range(count)]
    n = space.n
    alphas, draws = np.empty(count), np.empty((count, n, n))
    for i in range(count):
        alphas[i] = np.exp(rng.uniform(-2.0, 2.0))
        draws[i] = rng.normal(size=(n, n))
    B = space.Bmat
    if space.kind == "definite":
        # R = B^{-1/2} Q B^{1/2} with Q in SO(n): R^T B R = B, det R = 1
        Bh, Bih = _half_powers(B)
        Q, _ = np.linalg.qr(draws)
        flip = np.linalg.det(Q) < 0
        Q[flip, :, 0] = -Q[flip, :, 0]
        R = Bih @ Q @ Bh
    else:
        # exp(B^{-1} S) with antisymmetric S preserves the form; scale
        # the generator so boosts stay mild (rapidity <= 2)
        X = np.linalg.inv(B) @ (draws - draws.transpose(0, 2, 1))
        norm = np.linalg.norm(X, 2, axis=(1, 2))
        big = norm > 2.0
        X[big] *= (2.0 / norm[big])[:, None, None]
        # imported here, not at the top: a cold scipy.linalg import takes about 0.34 s
        import scipy.linalg

        quad.one_blas_thread(scipy)  # expm is the one caller of scipy's BLAS
        R = scipy.linalg.expm(X)
    return [GroupElement(float(a), tuple(r.ravel())) for a, r in zip(alphas, R)]


def sample_points(space, count, seed):
    """Seeded gaussian sample points in V, standard deviation 1.5 in each
    coordinate (for randomized invariance tests)."""
    rng = np.random.default_rng(seed)
    pts = rng.normal(0.0, 1.5, size=(count, space.n))
    return pts[:, 0] if space.kind == "scalar1d" else pts


def invariance_sweep(space, count, seed):
    """The worst check_relative_invariance over count group elements of
    sample_group(space, count, seed) paired with the points of
    sample_points(space, count, seed + 1)."""
    gs, ms = sample_group(space, count, seed), sample_points(space, count, seed + 1)
    rep = worst([check_relative_invariance(space, g, m) for g, m in zip(gs, ms)])
    rep.params.update(sweep_count=count, seed=seed)
    return rep


def _parse_B(kw):
    """The matrix of B=b1|b2|...: its diagonal, or, when n is given and
    there are n^2 entries, B row by row, as PVSpace's repr writes a
    non-diagonal B (it must be symmetric).  An n that contradicts the
    number of entries raises ConfigError."""
    entries = [float(x) for x in kw["B"].split("|")]
    n = int(kw["n"]) if "n" in kw else len(entries)
    if len(entries) == n:
        return np.diag(entries)
    if len(entries) != n * n:
        raise ConfigError(f"B has {len(entries)} entries, but n = {n} takes {n} or {n * n}")
    B = np.array(entries).reshape(n, n)
    if not np.array_equal(B, B.T):
        raise ConfigError("B given row by row must be symmetric")
    return B


_SPACE_KEYS = {"scalar1d": (), "definite": ("n", "q", "B"), "indefinite": ("n", "q", "B")}


def parse_space(spec):
    """Build a PVSpace from a string like 'definite:B=I,n=3',
    'definite:B=1|2|0.5', 'definite:n=2,B=2|0.5|0.5|1', 'indefinite:q=1,n=3'
    or 'scalar1d' (report.parse_spec); the text inside a PVSpace repr reads
    back as its space.  With B= given, n and q must agree with it, and a
    definite q is n (ConfigError otherwise)."""
    name, kw = parse_spec(spec, _SPACE_KEYS, "space kind")
    try:
        if name == "scalar1d":
            return scalar1d()
        if name == "definite":
            space = definite(n=int(kw.get("n", 3))) if kw.get("B", "I") == "I" else definite(B=_parse_B(kw))
            if "q" in kw and int(kw["q"]) != space.n:
                raise ConfigError(f"a definite space has q = n = {space.n}, not q = {kw['q']}")
            return space
        if "B" in kw:
            return indefinite(B=_parse_B(kw), q=int(kw["q"]) if "q" in kw else None)
        return indefinite(q=int(kw.get("q", 1)), n=int(kw.get("n", 3)))
    except (ValueError, DomainError) as exc:
        raise ConfigError(f"invalid space spec {spec!r}: {exc}") from exc
