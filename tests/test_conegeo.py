import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixcara import conegeo, recover
from mixcara.basis import MonomialBasis
from mixcara.conegeo import (
    BOUNDARY,
    EXTERIOR,
    INTERIOR,
    _classify,
    _cone_blocks,
    _is_hankel_basis,
    _itp_bracket,
    hankel_classify,
    represent_with_prescribed_component,
    strip_mass,
)
from mixcara.errors import (
    MomentOverflowError,
    NotRepresentableError,
    PrescriptionError,
    UnboundedStripError,
    UnsupportedBasisError,
)
from mixcara.measures import AtomicMeasure, MixtureMeasure, sample_random_mixture
from mixcara.moments import MomentVector, dirac_moments, mixture_moments

B2 = MonomialBasis.full_degree(2)


def mv(values, basis=B2):
    return MomentVector(values=np.asarray(values, dtype=float), basis=basis)


def unit_atom(x: float) -> MomentVector:
    """Strip direction: the moments of a unit atom at x."""
    return dirac_moments(B2, AtomicMeasure(weights=[1.0], points=[[x]]))


def test_classify_interior_boundary_exterior():
    assert hankel_classify(mv([1, 0, 1])).status == INTERIOR
    assert hankel_classify(mv([1, 0, 0])).status == BOUNDARY
    assert hankel_classify(mv([1, 0, -1])).status == EXTERIOR


def test_classify_margin_fields():
    cls = hankel_classify(mv([1, 0, 1]))
    assert cls.margin == pytest.approx(1.0)
    assert cls.tolerance == pytest.approx(2e-10)


def test_classify_gap_basis_unsupported():
    gap = MonomialBasis.univariate([0, 2, 3, 5, 6])
    with pytest.raises(UnsupportedBasisError):
        hankel_classify(MomentVector(values=np.ones(5), basis=gap))


@pytest.mark.parametrize(
    "values, real, positive",
    [
        ([1, 1, 1], BOUNDARY, BOUNDARY),  # an atom at 1
        ([1, -1, 1], BOUNDARY, EXTERIOR),  # an atom at -1
        ([2, 1, 1, 1], INTERIOR, BOUNDARY),  # atoms at 0 and 1
        ([1, 0, 1, 0], INTERIOR, EXTERIOR),  # atoms at -1 and 1
        ([2, 1, 2.5], INTERIOR, INTERIOR),  # atoms at 0.5 and 2
        ([2, -1, 2.5], INTERIOR, EXTERIOR),  # atoms at -0.5 and -2
        ([1, 0, -1], EXTERIOR, EXTERIOR),
        ([1], INTERIOR, INTERIOR),
        ([-1, 1], EXTERIOR, EXTERIOR),
    ],
)
def test_classify_real_line_and_half_line(values, real, positive):
    # the Gaussian blocks of {1, x, ..., x^d} are the real-line test, the
    # log-normal ones the half-line test, on {1, x, ..., x^d} and one shift up
    values = np.asarray(values, dtype=float)
    d = len(values) - 1
    verdict = _classify(values, _cone_blocks(MonomialBasis.full_degree(d), "gaussian"))
    assert verdict.status == real
    for basis in (MonomialBasis.full_degree(d), MonomialBasis.univariate(range(1, d + 2))):
        assert _classify(values, _cone_blocks(basis, "lognormal")).status == positive


def test_hankel_classify_is_the_real_line_test():
    rng = np.random.default_rng(5)
    for d in range(1, 9):
        s = mv(rng.normal(size=d + 1) + np.eye(d + 1)[0] * 3, MonomialBasis.full_degree(d))
        cls = hankel_classify(s)
        hankel = s.values[np.add.outer(np.arange(d // 2 + 1), np.arange(d // 2 + 1))]
        assert cls == _classify(s.values, _cone_blocks(s.basis, "gaussian"))
        assert cls.margin == np.linalg.eigvalsh(hankel)[0]


def test_half_line_margin_covers_both_blocks():
    # the shifted block [[s1, s2], [s2, s3]] of atoms at -0.5 and 2 is indefinite
    values = np.array([1.1, 1.95, 4.025, 7.9875])
    verdict = _classify(values, _cone_blocks(MonomialBasis.full_degree(3), "lognormal"))
    shifted = np.linalg.eigvalsh(np.array([[1.95, 4.025], [4.025, 7.9875]]))[0]
    assert verdict.status == EXTERIOR and verdict.margin == pytest.approx(shifted)
    assert verdict.tolerance == pytest.approx(1e-10 * (1 + 7.9875))


def _hankel(rows, shift=0):
    """The degrees a + b + shift of the principal block on ``rows``, which
    are also its indices on {1, x, ..., x^d}."""
    return np.add.outer(rows, rows) + shift


def _bivariate_moment_matrix(d):
    """The index matrix of (s_{a+b}) over every row a of total degree at
    most d // 2, on the bivariate basis of full degree d."""
    positions = MonomialBasis.full_degree(d, n=2).exponents
    rows = MonomialBasis.full_degree(d // 2, n=2).exponents
    return [[positions.index((a1 + b1, a2 + b2)) for b1, b2 in rows] for a1, a2 in rows]


def _in_basis(degrees, *blocks):
    """Degree matrices mapped to positions in the sorted ``degrees``."""
    return [np.searchsorted(degrees, block).tolist() for block in blocks]


@pytest.mark.parametrize(
    "basis, kind, blocks",
    [
        # the Hankel matrix (s_{i+j}) of order 3, and for log-normals its shift
        (MonomialBasis.full_degree(5), "gaussian", [_hankel([0, 1, 2]).tolist()]),
        (MonomialBasis.full_degree(5), "lognormal",
         [_hankel([0, 1, 2]).tolist(), _hankel([0, 1, 2], 1).tolist()]),
        # (s_{2+i+j}), then its shift (s_{1+i+j}), of order 3 on {x, ..., x^6},
        # where each degree sits one index below itself
        (MonomialBasis.univariate(range(1, 7)), "lognormal",
         [_hankel([0, 1, 2], 1).tolist(), _hankel([0, 1, 2], 0).tolist()]),
        # x dmu is no positive measure on the line, x^2 dmu is
        (MonomialBasis.univariate(range(1, 7)), "gaussian", [_hankel([0, 1, 2], 1).tolist()]),
        # rows {0, 3} read degrees 0, 3, 6, row 1 degree 2; shifted, rows 1
        # and 2 read degrees 3 and 5 alone
        (MonomialBasis.univariate([0, 2, 3, 5, 6]), "lognormal",
         _in_basis([0, 2, 3, 5, 6], _hankel([0, 3]), _hankel([1]), _hankel([1], 1),
                   _hankel([2], 1))),
        (MonomialBasis.univariate([0, 2, 3, 5, 6]), "gaussian",
         _in_basis([0, 2, 3, 5, 6], _hankel([0, 3]), _hankel([1]))),
        # rows (0,0), (1,0), (0,1) of the graded order (0,0), (1,0), (0,1), (2,0), (1,1), (0,2)
        (MonomialBasis.full_degree(2, n=2), "gaussian", [[[0, 1, 2], [1, 3, 4], [2, 4, 5]]]),
        (MonomialBasis.full_degree(5), "dirac", [_hankel([0, 1, 2]).tolist()]),
        # rows {0, 1}, {0, 2} and {1, 3} read degrees 0..2, {0, 2, 4}, {2, 4, 6}
        (MonomialBasis.univariate([0, 1, 2, 4, 6]), "gaussian",
         _in_basis([0, 1, 2, 4, 6], _hankel([0, 1]), _hankel([0, 2]), _hankel([1, 3]))),
        (MonomialBasis.univariate([1, 3, 5]), "gaussian", []),
        (MonomialBasis.univariate([0, 1, 3, 4, 6]), "gaussian",
         _in_basis([0, 1, 3, 4, 6], _hankel([0, 3]), _hankel([2]))),
        (MonomialBasis.full_degree(4, n=2), "gaussian", [_bivariate_moment_matrix(4)]),
    ],
)
def test_cone_blocks_by_kind_and_basis(basis, kind, blocks):
    table = _cone_blocks(basis, kind)
    assert [block.tolist() for block in table] == blocks
    assert all(block.dtype.kind == "i" and not block.flags.writeable for block in table)


@pytest.mark.parametrize("kind,mean_range", [("gaussian", (-2, 2)), ("lognormal", (0.5, 2.5))])
def test_mixture_moments_are_interior(kind, mean_range):
    """Full-support densities land strictly inside the cone."""
    basis = MonomialBasis.full_degree(4)
    rng = np.random.default_rng(21)
    for _ in range(250):
        k = int(rng.integers(1, 4))
        mix = sample_random_mixture(kind, k, rng=rng, mean_range=mean_range,
                                    sigma_range=(0.1, 0.6))
        s = mixture_moments(basis, mix)
        assert hankel_classify(s).status == INTERIOR


@pytest.mark.parametrize("d", range(2, 10, 2))
def test_few_atoms_sit_on_the_boundary(d):
    # even degree: the Hankel matrix of d/2 atoms has rank d/2 < d/2 + 1
    basis = MonomialBasis.full_degree(d)
    rng = np.random.default_rng(d)
    k = d // 2
    mu = AtomicMeasure(weights=rng.uniform(0.5, 2, k), points=rng.uniform(-1, 1, (k, 1)))
    s = dirac_moments(basis, mu)
    assert hankel_classify(s).status == BOUNDARY


def test_strip_two_atom_construction():
    mu = AtomicMeasure(weights=[1.0, 2.0], points=[[0.0], [1.0]])
    s = dirac_moments(B2, mu)
    v = unit_atom(1.0)
    c, stripped = strip_mass(s, v)
    assert c == pytest.approx(2.0, abs=1e-6)
    np.testing.assert_allclose(stripped.values, [1, 0, 0], atol=1e-6)


def test_strip_boundary_gives_zero():
    s = mv([1, 0, 0])  # boundary: a single atom at the origin
    v = unit_atom(1.0)
    c, stripped = strip_mass(s, v)
    assert c == pytest.approx(0.0, abs=1e-9)
    np.testing.assert_allclose(stripped.values, s.values, atol=1e-9)


def test_strip_single_ray():
    mu = AtomicMeasure(weights=[3.0], points=[[2.0]])
    s = dirac_moments(B2, mu)
    v = unit_atom(2.0)
    c, stripped = strip_mass(s, v)
    assert c == pytest.approx(3.0, abs=1e-6)
    np.testing.assert_allclose(stripped.values, 0.0, atol=1e-5)


def test_strip_bisection_brackets_the_boundary():
    mu = AtomicMeasure(weights=[1.0, 2.0], points=[[0.0], [1.0]])
    s = dirac_moments(B2, mu)
    v = unit_atom(1.0)
    c, _ = strip_mass(s, v)
    assert hankel_classify(s.with_values(s.values - (c - 1e-6) * v.values)).status != EXTERIOR
    assert hankel_classify(s.with_values(s.values - (c + 1e-6) * v.values)).status == EXTERIOR


def test_strip_from_a_boundary_vector_never_leaves_the_cone():
    # three atoms on {1, ..., x^6}: the 4-by-4 Hankel block is singular for
    # every mass below the stripped atom's weight, so the margin sits on the
    # threshold and the bracket lands somewhere in a band of rounding
    basis = MonomialBasis.full_degree(6)
    rng = np.random.default_rng(20261020)
    for trial in range(30):
        pts = np.sort(rng.uniform(-1.5, 1.5, 3))
        while np.diff(pts).min() < 0.3:
            pts = np.sort(rng.uniform(-1.5, 1.5, 3))
        w = rng.uniform(0.5, 2.0, 3)
        s = dirac_moments(basis, AtomicMeasure(weights=w, points=pts.reshape(-1, 1)))
        atom = trial % 3
        v = dirac_moments(basis, AtomicMeasure(weights=[1.0], points=[[pts[atom]]]))
        c, stripped = strip_mass(s, v)
        assert hankel_classify(stripped).status != EXTERIOR
        assert c == pytest.approx(w[atom], abs=1e-7)


def _bisect(f, lo, hi, width):
    """Plain bisection on the sign of ``f``, with its count of calls."""
    calls = 0
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        calls += 1
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
    return lo, hi, calls


# odd, increasing shapes t -> g(t): a sign change of g(root - x) at the root
_SHAPES = {
    "linear": lambda t: t,
    "cubic": lambda t: t**3 + 0.01 * t,
    "tanh": lambda t: math.tanh(40.0 * t),
    "sqrt": lambda t: math.copysign(math.sqrt(abs(t)), t),
    "step": lambda t: math.copysign(1.0 + abs(t), t) if t else 0.0,
    "kink": lambda t: 30.0 * t if t < 0 else 0.05 * t,
}


@settings(max_examples=300, deadline=None)
@given(
    lo=st.floats(-10.0, 10.0),
    span=st.floats(1e-3, 20.0),
    at=st.floats(-0.2, 1.2),
    halvings=st.integers(0, 36),
    scale=st.floats(1e-12, 1e6),
    shape=st.sampled_from(sorted(_SHAPES)),
)
def test_itp_bracket_ends_on_both_sides_within_bisection_count_plus_three(
    lo, span, at, halvings, scale, shape
):
    hi = lo + span
    width = span * 2.0**-halvings
    root = lo + at * span
    calls = []

    def g(x):
        return scale * _SHAPES[shape](root - x)

    def f(x):
        calls.append(x)
        return g(x)

    a, b = _itp_bracket(f, lo, hi, width)
    want_a, want_b, bisections = _bisect(g, lo, hi, width)
    assert lo <= a <= b <= hi and b - a <= width
    assert len(calls) <= bisections + 3
    if g(lo) > 0 >= g(hi):
        assert g(a) > 0 >= g(b)
    elif hi - lo > width:
        # an end on the wrong side: bisection's bracket after the two end calls
        assert (a, b) == (want_a, want_b)
        assert calls == [lo, hi]


def test_strip_unbounded_direction():
    s = mv([1, 0, 1])
    v = mv([0, 0, -1])  # removing it only adds mass at the top moment
    with pytest.raises(UnboundedStripError):
        strip_mass(s, v)


def test_strip_exterior_input_rejected():
    with pytest.raises(NotRepresentableError):
        strip_mass(mv([1, 0, -1]), mv([1, 0, 1]))


def test_prescribe_component_on_gaussian_moments():
    basis = MonomialBasis.full_degree(5)
    mix = sample_random_mixture("gaussian", 1, rng=1, mean_range=(-0.2, 0.2),
                                sigma_range=(0.9, 1.1))
    s = mixture_moments(basis, mix)
    combined = represent_with_prescribed_component(basis, "gaussian", s, 5.0, 0.3)
    assert any(
        c > 0 and xi[0] == pytest.approx(5.0) and sg == pytest.approx(0.3)
        for c, xi, sg in combined.components()
    )
    achieved = mixture_moments(basis, combined).values
    scale = 1 + np.max(np.abs(s.values))
    assert np.max(np.abs(achieved - s.values)) / scale <= 1e-8


@pytest.mark.parametrize(
    "basis",
    [MonomialBasis.full_degree(5), MonomialBasis.univariate(range(1, 7))],
    ids=["full-degree", "no-constant"],
)
def test_prescribe_lognormal_component(basis):
    # large first masses leave remainders with negative moments, which the
    # log-normal engine refuses; the mass must keep halving past them
    mix = sample_random_mixture("lognormal", 2, rng=3, mean_range=(0.7, 2.0),
                                sigma_range=(0.1, 0.3), shared_sigma=True)
    s = mixture_moments(basis, mix)
    combined = represent_with_prescribed_component(basis, "lognormal", s, 1.0, 0.2)
    assert combined.kind == "lognormal"
    assert any(c > 0 and xi[0] == 1.0 and sg == 0.2 for c, xi, sg in combined.components())
    achieved = mixture_moments(basis, combined).values
    assert np.max(np.abs(achieved - s.values)) / (1 + np.max(np.abs(s.values))) <= 1e-8


@pytest.mark.parametrize("d", [4, 6])
def test_prescribe_gaussian_component_at_even_degree(d):
    # the remainders need the engine's cap d/2 at even d
    basis = MonomialBasis.full_degree(d)
    for seed in range(30):
        truth = sample_random_mixture("gaussian", d // 2 + 1, rng=seed, sigma_range=(0.1, 0.6),
                                      min_separation=0.3)
        s = mixture_moments(basis, truth)
        combined = represent_with_prescribed_component(basis, "gaussian", s, 0.0, 0.5)
        assert any(c > 0 and xi[0] == 0.0 and sg == 0.5 for c, xi, sg in combined.components())
        achieved = mixture_moments(basis, combined).values
        assert np.max(np.abs(achieved - s.values)) / (1 + np.max(np.abs(s.values))) <= 1e-8


def test_prescribe_existing_component_succeeds():
    basis = MonomialBasis.full_degree(5)
    mix = sample_random_mixture("gaussian", 2, rng=4, min_separation=0.8)
    s = mixture_moments(basis, mix)
    x0 = float(mix.means[0, 0])
    sigma0 = float(mix.sigmas[0])
    combined = represent_with_prescribed_component(basis, "gaussian", s, x0, sigma0)
    achieved = mixture_moments(basis, combined).values
    assert np.max(np.abs(achieved - s.values)) / (1 + np.max(np.abs(s.values))) <= 1e-8


def test_prescribe_rejects_boundary():
    basis = MonomialBasis.full_degree(2)
    s = mv([1, 0, 0])
    with pytest.raises(NotRepresentableError):
        represent_with_prescribed_component(basis, "gaussian", s, 1.0, 0.5)


def test_prescribe_sigma_validation():
    basis = MonomialBasis.full_degree(2)
    with pytest.raises(ValueError):
        represent_with_prescribed_component(basis, "gaussian", mv([1, 0, 1]), 1.0, -0.5)


@pytest.mark.parametrize("x0, sigma0, name", [
    (1.0, math.nan, "sigma0"),
    (1.0, math.inf, "sigma0"),
    (math.inf, 0.5, "x0"),
    (math.nan, 0.5, "x0"),
    ([-math.inf], 0.5, "x0"),
])
def test_prescribe_rejects_non_finite_arguments(monkeypatch, x0, sigma0, name):
    # they used to reach the moment kernel and end in a MomentOverflowError
    statuses = engine_spy(monkeypatch)
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        represent_with_prescribed_component(B2, "gaussian", mv([1, 0, 1]), x0, sigma0)
    assert statuses == []


def test_prescribe_rejects_a_component_whose_scaled_moments_overflow(monkeypatch):
    # half the mass 2e12 times x0^5 = 1e305 leaves the float range; the
    # remainder used to reach MomentVector, whose ValueError named no argument
    basis = MonomialBasis.full_degree(5)
    s = mixture_moments(basis, MixtureMeasure(kind="gaussian", weights=[1e12, 1e12],
                                              means=[[-1.0], [1.0]], sigmas=[0.3, 0.3]))
    statuses = engine_spy(monkeypatch)
    classified = []
    real = conegeo._classify

    def spy(values, blocks):
        classified.append(np.all(np.isfinite(values)))
        return real(values, blocks)

    monkeypatch.setattr(conegeo, "_classify", spy)
    with pytest.raises(MomentOverflowError, match=r"x0=1e\+61, sigma0=0\.3 "):
        represent_with_prescribed_component(basis, "gaussian", s, 1e61, 0.3)
    assert classified == [True] and statuses == []


def test_prescribe_rejects_mismatched_basis():
    mix = sample_random_mixture("gaussian", 2, rng=0, sigma_range=(0.1, 0.3))
    s = mixture_moments(MonomialBasis.full_degree(4), mix)
    with pytest.raises(ValueError, match="basis does not match"):
        represent_with_prescribed_component(MonomialBasis.full_degree(5), "gaussian", s, 1.0, 0.5)


def engine_spy(monkeypatch) -> list:
    """Route both shared-scale engines through a spy; each call appends its
    input's Hankel status (None off the basis {1, x, ..., x^d})."""
    statuses = []
    for name in ("recover_shared_sigma_gaussian", "recover_shared_sigma_lognormal"):
        def spy(s, *args, _engine=getattr(recover, name), **kwargs):
            statuses.append(hankel_classify(s).status if s.basis.is_full_degree() else None)
            return _engine(s, *args, **kwargs)

        monkeypatch.setattr(recover, name, spy)
    return statuses


def far_component_case(kind):
    """d = 5 moments with a prescribed component away from the truth: most
    halved masses leave a remainder outside the cone."""
    basis = MonomialBasis.full_degree(5)
    if kind == "gaussian":
        mix = sample_random_mixture("gaussian", 2, rng=0, mean_range=(-1.5, 1.5),
                                    sigma_range=(0.1, 0.4), min_separation=0.5)
        return basis, mixture_moments(basis, mix), 3.0, 0.3
    mix = sample_random_mixture("lognormal", 2, rng=3, mean_range=(0.7, 2.0),
                                sigma_range=(0.1, 0.3), shared_sigma=True)
    return basis, mixture_moments(basis, mix), 1.0, 0.2


@pytest.mark.parametrize("kind", ["gaussian", "lognormal"])
def test_prescribe_never_feeds_the_engine_an_exterior_remainder(monkeypatch, kind):
    basis, s, x0, sigma0 = far_component_case(kind)
    statuses = engine_spy(monkeypatch)
    combined = represent_with_prescribed_component(basis, kind, s, x0, sigma0)
    assert statuses and EXTERIOR not in statuses
    assert any(c > 0 and xi[0] == x0 and sg == sigma0 for c, xi, sg in combined.components())
    achieved = mixture_moments(basis, combined).values
    assert np.max(np.abs(achieved - s.values)) / (1 + np.max(np.abs(s.values))) <= 1e-8


@pytest.mark.parametrize("kind", ["gaussian", "lognormal"])
def test_prescribe_far_component_calls_engine_at_most_twice(monkeypatch, kind):
    # running the engine on every exterior remainder takes 10 calls for the
    # Gaussian case and 5 for the log-normal one
    basis, s, x0, sigma0 = far_component_case(kind)
    statuses = engine_spy(monkeypatch)
    represent_with_prescribed_component(basis, kind, s, x0, sigma0)
    assert len(statuses) <= 2


@pytest.mark.parametrize("x0", [1.0, 2.5, 3.0])
def test_prescribe_lognormal_without_constant_calls_engine_at_most_once(monkeypatch, x0):
    # the half-line test certifies the input and skips the exterior
    # remainders, so the one engine call is on the first recoverable remainder
    basis = MonomialBasis.univariate(range(1, 7))
    mix = sample_random_mixture("lognormal", 2, rng=3, mean_range=(0.7, 2.0),
                                sigma_range=(0.1, 0.3), shared_sigma=True)
    s = mixture_moments(basis, mix)
    statuses = engine_spy(monkeypatch)
    combined = represent_with_prescribed_component(basis, "lognormal", s, x0, 0.2)
    assert len(statuses) <= 1
    assert any(c > 0 and xi[0] == x0 and sg == 0.2 for c, xi, sg in combined.components())
    achieved = mixture_moments(basis, combined).values
    assert np.max(np.abs(achieved - s.values)) / (1 + np.max(np.abs(s.values))) <= 1e-8


def test_prescribe_lognormal_needs_a_half_line_interior_input(monkeypatch):
    # real-line interior, but with mass on the negative axis: no log-normal
    # mixture has these moments, and certifying with the real-line test alone
    # ran about 40 halvings before failing
    basis = MonomialBasis.full_degree(5)
    mix = MixtureMeasure(kind="gaussian", weights=[1.0, 0.1], means=[[2.0], [-0.5]],
                         sigmas=[0.1, 0.1])
    s = mixture_moments(basis, mix)
    assert hankel_classify(s).status == INTERIOR
    statuses = engine_spy(monkeypatch)
    with pytest.raises(NotRepresentableError, match="half-line Hankel margin"):
        represent_with_prescribed_component(basis, "lognormal", s, 1.0, 0.2)
    assert statuses == []


def test_prescribe_refuses_a_basis_without_a_cone_test(monkeypatch):
    # on a gap basis the blocks read only some principal submatrices, and
    # none certifies the whole vector as interior
    basis = MonomialBasis.univariate([0, 2, 3, 5, 6])
    mix = sample_random_mixture("gaussian", 3, rng=6, sigma_range=(0.05, 0.05),
                                min_separation=0.5, shared_sigma=True)
    s = mixture_moments(basis, mix)
    statuses = engine_spy(monkeypatch)
    with pytest.raises(UnsupportedBasisError, match="gaussian moments needs the basis"):
        represent_with_prescribed_component(basis, "gaussian", s, 1.0, 0.5)
    assert statuses == []
    # one block spans {x^2, ..., x^6}, but the Gaussian engine needs {1, x, ..., x^d}
    shifted = MonomialBasis.univariate(range(2, 7))
    with pytest.raises(UnsupportedBasisError, match="gaussian moments needs the basis"):
        represent_with_prescribed_component(
            shifted, "gaussian", mixture_moments(shifted, mix), 1.0, 0.5
        )
    assert statuses == []


def test_prescription_error_names_the_last_eps_tried(monkeypatch):
    basis = MonomialBasis.full_degree(3)
    mix = MixtureMeasure(kind="gaussian", weights=[1.1], means=[[0.0]], sigmas=[1.0])
    s = mixture_moments(basis, mix)
    tried = []

    def failing_engine(remainder):
        tried.append(remainder.values)
        return SimpleNamespace(success=False, model=None, failure_reason="stub failure")

    monkeypatch.setattr(recover, "recover_shared_sigma_gaussian", failing_engine)
    # the masses tried are 1.1 / 2, 1.1 / 4, ..., down to 1.1 * 2**-39 >= 1e-12 * 1.1
    with pytest.raises(PrescriptionError,
                       match=rf"down to eps={1.1 * 2.0 ** -39:.3e}: stub failure$"):
        represent_with_prescribed_component(basis, "gaussian", s, 0.5, 0.5)
    assert tried


def test_prescription_error_names_a_combined_residual_above_tolerance(monkeypatch):
    basis = MonomialBasis.full_degree(3)
    s = mixture_moments(basis, MixtureMeasure(kind="gaussian", weights=[1.0], means=[[0.0]],
                                              sigmas=[1.0]))
    # a claimed recovery whose moments are far from every remainder
    wrong = MixtureMeasure(kind="gaussian", weights=[5.0], means=[[2.0]], sigmas=[0.5])

    def wrong_engine(remainder):
        return SimpleNamespace(success=True, model=wrong, failure_reason=None)

    monkeypatch.setattr(recover, "recover_shared_sigma_gaussian", wrong_engine)
    with pytest.raises(PrescriptionError, match=r"combined residual \S+ above 1\.0e-08$"):
        represent_with_prescribed_component(basis, "gaussian", s, 0.5, 0.5)


@pytest.mark.parametrize("basis, hankel", [
    (MonomialBasis.full_degree(0), True),
    (MonomialBasis.full_degree(6), True),
    (MonomialBasis.univariate([0, 1, 3, 4, 6]), False),
    (MonomialBasis.univariate([0, 2, 3, 5, 6]), False),
    (MonomialBasis.univariate(range(1, 7)), False),
    (MonomialBasis.full_degree(3, n=2), False),
], ids=["1", "1..x6", "01346", "02356", "x..x6", "bivariate-d3"])
def test_the_gaussian_hankel_rule_is_the_full_degree_rule(basis, hankel):
    assert _is_hankel_basis(basis, "gaussian") == basis.is_full_degree() == hankel
