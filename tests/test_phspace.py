import dataclasses

import numpy as np
import pytest
import scipy.linalg

from pvzeta import phspace
from pvzeta.errors import ConfigError, DomainError


@pytest.mark.parametrize("spec", ["scalar1d", "definite:B=I,n=3", "indefinite:q=1,n=3"])
def test_parse_space_roundtrip(spec):
    sp = phspace.parse_space(spec)
    assert sp.kind in ("scalar1d", "definite", "indefinite")


@pytest.mark.parametrize(
    "spec, text",
    [
        ("definite:B=1|2|0.5,n=3", "PVSpace(definite, n=3, q=3, B=1|2|0.5)"),
        ("definite:n=3", "PVSpace(definite, n=3, q=3)"),
        ("indefinite:B=2|-1|-1", "PVSpace(indefinite, n=3, q=1, B=2|-1|-1)"),
        ("indefinite:B=1|-1|-1", "PVSpace(indefinite, n=3, q=1)"),
        ("indefinite:q=2,n=3", "PVSpace(indefinite, n=3, q=2)"),
    ],
    ids=["definite-B", "definite", "indefinite-B", "indefinite-default-B", "indefinite-q"],
)
def test_space_repr_names_a_non_default_B(spec, text):
    # a row's space param identifies its run: B is named unless it is the
    # kind's default, and spaces built without B= keep their text
    assert repr(phspace.parse_space(spec)) == text


@pytest.mark.parametrize(
    "spec",
    [
        "definite:B=1|2,n=3",
        "definite:B=2|0.5|0.5|1,n=3",
        "definite:B=1|2,q=1",
        "definite:n=3,q=1",
        "indefinite:B=1|-1|-1,n=2",
        "indefinite:B=1|-1|-1,q=2",
    ],
    ids=["definite-n", "definite-matrix-n", "definite-B-q", "definite-q", "indefinite-n", "indefinite-q"],
)
def test_parse_space_refuses_an_n_or_q_that_B_contradicts(spec):
    with pytest.raises(ConfigError):
        phspace.parse_space(spec)


def test_parse_space_refuses_an_asymmetric_B():
    with pytest.raises(ConfigError, match="symmetric"):
        phspace.parse_space("definite:n=2,B=2|0.5|0.4|1")


def _spec_of(space):
    # the text inside the repr, as a spec: "PVSpace(definite, n=2, ...)"
    # becomes "definite:n=2,..."
    kind, _, rest = repr(space).removeprefix("PVSpace(").removesuffix(")").partition(", ")
    return f"{kind}:{rest.replace(', ', ',')}" if rest else kind


@pytest.mark.parametrize(
    "space",
    [
        phspace.scalar1d(),
        phspace.definite(n=3),
        phspace.definite(B=np.diag([1.0, 2.0, 0.5])),
        phspace.definite(B=[[2.0, 0.5], [0.5, 1.0]]),
        phspace.definite(B=[[1.0, 0.1, 0.2], [0.1, 2.0, -0.3], [0.2, -0.3, 1.5]]),
        phspace.indefinite(q=1, n=3),
        phspace.indefinite(B=np.diag([2.0, -1.0, -1.0])),
        phspace.indefinite(B=np.diag([1.5, 0.25, -3.0])),
    ],
    ids=["scalar1d", "definite", "definite-diagonal-B", "definite-matrix-B-2", "definite-matrix-B-3",
         "indefinite", "indefinite-diagonal-B", "indefinite-diagonal-B-q2"],
)
def test_space_repr_parses_back(space):
    assert phspace.parse_space(_spec_of(space)) == space


def test_parse_space_reads_a_diagonal_B_written_row_by_row():
    assert phspace.parse_space("indefinite:n=2,q=1,B=2|0|0|-1") == phspace.indefinite(B=np.diag([2.0, -1.0]))
    assert phspace.parse_space("definite:n=2,B=2|0|0|1") == phspace.definite(B=np.diag([2.0, 1.0]))


def test_parse_space_accepts_an_n_and_q_that_B_agrees_with():
    assert phspace.parse_space("definite:B=1|2,n=2") == phspace.definite(B=np.diag([1.0, 2.0]))
    assert phspace.parse_space("indefinite:B=2|-1|-1,q=1,n=3") == phspace.indefinite(B=np.diag([2.0, -1.0, -1.0]))


def test_parse_space_rejects_garbage():
    with pytest.raises(ConfigError):
        phspace.parse_space("nonsense:x=1")


def test_relative_invariance_sampled():
    for spec in ("scalar1d", "definite:B=I,n=3", "indefinite:q=1,n=3"):
        sp = phspace.parse_space(spec)
        gs = phspace.sample_group(sp, 25, seed=5)
        ms = phspace.sample_points(sp, 25, seed=6)
        for g, m in zip(gs, ms):
            rep = phspace.check_relative_invariance(sp, g, m)
            assert rep.passed, (spec, rep.rel_residual)


def test_character_determinant_relation():
    # det rho(g)^2 = chi(g)^{2n/deg p}
    for spec in ("scalar1d", "definite:B=I,n=3", "indefinite:q=1,n=3"):
        sp = phspace.parse_space(spec)
        for g in phspace.sample_group(sp, 10, seed=2):
            n = sp.n
            rho = g.alpha * (g.rot(n) if sp.kind != "scalar1d" else np.eye(1))
            lhs = np.linalg.det(rho) ** 2
            rhs = phspace.character(sp, g) ** (2.0 * n / sp.deg_p)
            assert abs(lhs - rhs) / max(abs(rhs), 1.0) < 1e-10


def test_sampling_deterministic():
    sp = phspace.parse_space("definite:B=I,n=3")
    a = phspace.sample_group(sp, 5, seed=1)
    b = phspace.sample_group(sp, 5, seed=1)
    assert all(x.alpha == y.alpha and x.R == y.R for x, y in zip(a, b))


def test_sample_group_rejects_negative_count():
    with pytest.raises(DomainError):
        phspace.sample_group(phspace.scalar1d(), -1, seed=0)


def _sample_group_one_at_a_time(space, count, seed):
    """(alpha, R) of sample_group with each rotation built on its own from
    its own draw: the reference of the stacked calls."""
    rng = np.random.default_rng(seed)
    out, n = [], space.n
    for _ in range(count):
        alpha = float(np.exp(rng.uniform(-2.0, 2.0)))
        if space.kind == "scalar1d":
            out.append((alpha, None))
            continue
        B = space.Bmat
        if space.kind == "definite":
            Bh, Bih = phspace._half_powers(B)
            Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
            if np.linalg.det(Q) < 0:
                Q[:, 0] = -Q[:, 0]
            R = Bih @ Q @ Bh
        else:
            S = rng.normal(size=(n, n))
            S = S - S.T
            X = np.linalg.inv(B) @ S
            norm = np.linalg.norm(X, 2)
            if norm > 2.0:
                X *= 2.0 / norm
            R = scipy.linalg.expm(X)
        out.append((alpha, R))
    return out


@pytest.mark.parametrize("count", [0, 1, 200])
@pytest.mark.parametrize(
    "spec",
    [
        "scalar1d",
        "definite:B=I,n=3",
        "definite:B=1|2|0.5",
        "definite:n=2,B=2|0.5|0.5|1",
        "indefinite:q=1,n=3",
        "indefinite:q=2,n=4",
        "indefinite:q=1,n=2",
    ],
)
def test_stacked_rotations_have_the_bits_of_one_element_at_a_time(spec, count):
    space = phspace.parse_space(spec)
    for seed in (3, 301):
        got = phspace.sample_group(space, count, seed)
        ref = _sample_group_one_at_a_time(space, count, seed)
        assert len(got) == len(ref) == count
        for g, (alpha, R) in zip(got, ref):
            assert type(g.alpha) is float and g.alpha == alpha
            assert g.R is None if R is None else g.R == tuple(R.ravel())


@pytest.mark.parametrize("spec, module, name", [("indefinite:q=1,n=3", scipy.linalg, "expm"), ("definite:n=3", np.linalg, "qr")])
def test_one_sample_group_builds_its_rotations_in_one_call(spec, module, name, monkeypatch):
    # one stacked call for every element, not one per element
    shapes, original = [], getattr(module, name)

    def counted(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    phspace.sample_group(phspace.parse_space(spec), 200, seed=1)
    assert shapes == [(200, 3, 3)]


@pytest.mark.parametrize("spec", ["definite:B=I,n=3", "indefinite:q=1,n=3", "definite:B=2|1|0.5", "scalar1d"])
def test_space_builds_its_matrix_and_text_once(spec):
    # Bmat and the repr are built once per space; Bmat is read-only, and
    # equality and hash are those of the fields alone
    space = phspace.parse_space(spec)
    twin = phspace.parse_space(spec)
    assert space == twin and hash(space) == hash(twin)
    text = repr(space)
    assert repr(space) is text and space == twin and hash(space) == hash(twin)
    if space.B is None:
        assert space.Bmat is None
        return
    B = space.Bmat
    assert space.Bmat is B and np.array_equal(B, np.reshape(space.B, (space.n, space.n)))
    with pytest.raises(ValueError):
        B[0, 0] = 7.0
    assert space == twin and hash(space) == hash(twin)
    # a replaced space builds its own matrix and text
    other = dataclasses.replace(space, B=tuple(2.0 * np.asarray(space.B)))
    assert other != space and other.Bmat is not B and np.array_equal(other.Bmat, 2.0 * B)
    assert repr(other) != text and phspace.parse_space(_spec_of(other)) == other
    same = dataclasses.replace(space)
    assert same == space and hash(same) == hash(space) and repr(same) == text and np.array_equal(same.Bmat, B)


def test_relative_invariance_evaluates_p_of_m_once(monkeypatch):
    # one p(m) serves chi(g) p(m) and the normalization max(1, |p(m)|)
    calls, real = [], phspace.rel_invariant

    def counted(space, m):
        calls.append(m)
        return real(space, m)

    monkeypatch.setattr(phspace, "rel_invariant", counted)
    space = phspace.parse_space("indefinite:q=1,n=3")
    g = phspace.sample_group(space, 1, 5)[0]
    rep = phspace.check_relative_invariance(space, g, np.array([0.3, -1.2, 0.8]))
    assert len(calls) == 2 and rep.passed
