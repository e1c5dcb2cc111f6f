from types import SimpleNamespace

import numpy as np
import pytest

from mixcara import recover
from mixcara.basis import MonomialBasis
from mixcara.conegeo import (
    BOUNDARY,
    EXTERIOR,
    INTERIOR,
    _classify,
    _cone_support,
    hankel_classify,
    represent_with_prescribed_component,
    strip_mass,
)
from mixcara.errors import (
    InfeasibleMomentsError,
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
    values = np.asarray(values, dtype=float)
    assert _classify(values, "real")[0] == real
    assert _classify(values, "positive")[0] == positive


def test_hankel_classify_is_the_real_line_test():
    rng = np.random.default_rng(5)
    for d in range(1, 9):
        s = mv(rng.normal(size=d + 1) + np.eye(d + 1)[0] * 3, MonomialBasis.full_degree(d))
        cls = hankel_classify(s)
        assert (cls.status, cls.margin, cls.tolerance) == _classify(s.values, "real")


def test_half_line_margin_covers_both_blocks():
    # the shifted block [[s1, s2], [s2, s3]] of atoms at -0.5 and 2 is indefinite
    values = np.array([1.1, 1.95, 4.025, 7.9875])
    status, margin, tol = _classify(values, "positive")
    shifted = np.linalg.eigvalsh(np.array([[1.95, 4.025], [4.025, 7.9875]]))[0]
    assert status == EXTERIOR and margin == pytest.approx(shifted)
    assert tol == pytest.approx(1e-10 * (1 + 7.9875))


@pytest.mark.parametrize(
    "basis, kind, support",
    [
        (MonomialBasis.full_degree(5), "gaussian", "real"),
        (MonomialBasis.full_degree(5), "lognormal", "positive"),
        (MonomialBasis.univariate(range(1, 7)), "lognormal", "positive"),
        (MonomialBasis.univariate(range(1, 7)), "gaussian", None),
        (MonomialBasis.univariate([0, 2, 3, 5, 6]), "lognormal", None),
        (MonomialBasis.univariate([0, 2, 3, 5, 6]), "gaussian", None),
        (MonomialBasis.full_degree(2, n=2), "gaussian", None),
        (MonomialBasis.full_degree(5), "dirac", None),
    ],
)
def test_cone_support_by_kind_and_basis(basis, kind, support):
    assert _cone_support(basis, kind) == support


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
    # Gaussian moments on a gap basis have no cone test to certify them
    basis = MonomialBasis.univariate([0, 2, 3, 5, 6])
    mix = sample_random_mixture("gaussian", 3, rng=6, sigma_range=(0.05, 0.05),
                                min_separation=0.5, shared_sigma=True)
    s = mixture_moments(basis, mix)
    statuses = engine_spy(monkeypatch)
    with pytest.raises(UnsupportedBasisError, match="no cone test"):
        represent_with_prescribed_component(basis, "gaussian", s, 1.0, 0.5)
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


def test_prescription_error_names_a_refused_remainder(monkeypatch):
    basis = MonomialBasis.full_degree(3)
    s = mixture_moments(basis, MixtureMeasure(kind="gaussian", weights=[1.0], means=[[0.0]],
                                              sigmas=[1.0]))

    def refusing_engine(remainder):
        raise InfeasibleMomentsError("stub refusal")

    monkeypatch.setattr(recover, "recover_shared_sigma_gaussian", refusing_engine)
    with pytest.raises(PrescriptionError, match=r"remainder refused: stub refusal$"):
        represent_with_prescribed_component(basis, "gaussian", s, 0.5, 0.5)


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
