"""Seeded generators: SplitMix64 stream, densities, constrained X-params."""

import hashlib
import itertools
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xtangle import ensemble
from xtangle import (
    ConstraintInfeasibleError,
    RankClass,
    SplitMix64,
    child_seed,
    classify_rank,
    concurrence_x,
    is_density_matrix,
    is_physical,
    is_separable,
    is_unitary,
    numerical_rank,
    purity_general,
    random_density,
    random_unitary,
    random_xparams,
    to_density,
)
from xtangle.ensemble import MASK64, RANK_KIND_TARGETS, _ginibre, _pinned_draw
from xtangle.matrix_core import DEFAULT_TOL

# reference stream: published test vectors for this generator, seed 0
SEED0_U64 = (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F)

# frozen from an independent implementation of the same algorithm
SEED42_U64 = (
    0xBDD732262FEB6E95,
    0x28EFE333B266F103,
    0x47526757130F9F52,
    0x581CE1FF0E4AE394,
    0x09BC585A244823F2,
)
SEED42_UNIFORM = (0.7415648787718233, 0.1599103928769201, 0.27860113025513866)
SEED42_NORMAL = (0.4147197504315305, 0.6526812221519427,
                 -0.8918862136277562, 1.3268335628141064)

# sha256 of test_random_xparams_frozen_draws' lines
FROZEN_DRAWS_SHA256 = "058b9007510db5a5cc6f2d66dd79fa5a93ed0f68b8c875333e68b0e48f16ea02"
# sha256 of the bytes of test_ginibre_frozen_draws' matrices
FROZEN_GINIBRE_SHA256 = "ba088f325af2903ad5e44269585e31c493f309204b1cca3bb232fd11cb286eb0"

DENSITY_KINDS = ("hilbert_schmidt", "pure_haar", "rank_1", "rank_2", "rank_3", "rank_4")
RANK_KINDS = [(1, 1), (1, 2), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (4, 1)]


def test_splitmix_reference_stream():
    rng = SplitMix64(0)
    assert tuple(rng.next_u64() for _ in range(3)) == SEED0_U64
    rng = SplitMix64(42)
    assert tuple(rng.next_u64() for _ in range(5)) == SEED42_U64


def test_splitmix_uniform_normal():
    rng = SplitMix64(42)
    assert tuple(rng.uniform() for _ in range(3)) == SEED42_UNIFORM
    rng = SplitMix64(42)
    assert tuple(rng.normal() for _ in range(4)) == SEED42_NORMAL
    rng = SplitMix64(7)
    for _ in range(2000):
        u = rng.uniform()
        assert 0.0 <= u < 1.0


def test_splitmix_uniform_range():
    rng = SplitMix64(8)
    for _ in range(500):
        v = rng.uniform(2.0, 5.0)
        assert 2.0 <= v < 5.0


FLOAT_MAX = float(np.finfo(float).max)


@pytest.mark.parametrize("lo, hi", [
    (5.0, 2.0), (1.0, 1.0), (0, 1), (True, 3), (np.float64(-1.5), np.int64(2)),
    (-FLOAT_MAX, 0.0), (FLOAT_MAX, FLOAT_MAX),
])
def test_splitmix_uniform_reads_finite_real_bounds(lo, hi):
    # hi < lo, ints, bools, real numpy values and the largest floats are
    # bounds: the value is lo + (hi - lo) u of the stream's next uniform
    u = SplitMix64(9).uniform()
    assert repr(SplitMix64(9).uniform(lo, hi)) == repr(lo + (hi - lo) * u)


def test_child_seed_frozen():
    assert child_seed(42, 0) == 13679457532755275413
    assert child_seed(42, 1) == 2949826092126892291
    # disjoint from the parent's own stream position shift
    assert child_seed(42, 0) == SplitMix64(42).next_u64()


def test_random_density_valid():
    for i in range(50):
        rho = random_density(child_seed(50, i))
        ok, why = is_density_matrix(rho)
        assert ok, why


def test_random_density_determinism():
    np.testing.assert_array_equal(random_density(42), random_density(42))
    assert not np.array_equal(random_density(42), random_density(43))


def test_random_density_pure_haar():
    for i in range(20):
        rho = random_density(child_seed(51, i), "pure_haar")
        assert purity_general(rho) == pytest.approx(1.0, abs=1e-12)


def test_random_density_rank_k():
    for k in (1, 2, 3, 4):
        for i in range(10):
            rho = random_density(child_seed(52 + k, i), f"rank_{k}")
            assert numerical_rank(rho) == k


def test_random_density_unknown_kind():
    with pytest.raises(ValueError):
        random_density(1, "bures")


def test_random_xparams_valid():
    for i in range(100):
        p = random_xparams(child_seed(60, i))
        assert is_physical(p)


def test_random_xparams_rank_kind_targets():
    for rank, kind in RANK_KINDS:
        for i in range(15):
            p = random_xparams(child_seed(61, 10 * rank + kind + 100 * i),
                               f"rank_{rank}_kind_{kind}")
            assert classify_rank(p) == RankClass(rank, kind)
            assert numerical_rank(to_density(p)) == rank


def test_random_xparams_entangled_separable():
    for i in range(50):
        p = random_xparams(child_seed(62, i), "entangled")
        assert not is_separable(p)
        assert concurrence_x(to_density(p)) > 0.0
        q = random_xparams(child_seed(63, i), "separable")
        assert is_separable(q)


def test_random_xparams_infeasible():
    for rank, kind in ((1, 3), (3, 3), (4, 2), (4, 3)):
        with pytest.raises(ConstraintInfeasibleError):
            random_xparams(1, f"rank_{rank}_kind_{kind}")


def test_random_xparams_gives_up_after_max_tries(monkeypatch):
    monkeypatch.setattr(ensemble, "MAX_TRIES", 0)
    with pytest.raises(ConstraintInfeasibleError,
                       match=r"^no draw met 'entangled' within 0 tries \(seed 5\)$"):
        random_xparams(5, "entangled")


@pytest.mark.parametrize("rank, kind", RANK_KINDS)
def test_pinned_draw_is_in_its_class_at_every_corner(rank, kind):
    # _pinned_draw's seven uniforms are mu, nu, the three interior angles
    # and the two fractions: every corner of the angle box (the pins kept)
    # with every fraction end, where g_cal and h_cal reach their lows.
    # The class must hold at ten times classify_rank's default tolerance.
    for ends in itertools.product((0.0, 1.0), repeat=7):
        p = _pinned_draw(list(ends), rank, kind)
        assert classify_rank(p, tol=10 * DEFAULT_TOL) == RankClass(rank, kind), ends


def test_only_entangled_draws_are_retried(monkeypatch):
    # every other constraint is drawn in its class: with no tries left it
    # still returns, and the same draw (test_random_xparams_gives_up_after_max_tries
    # covers entangled)
    constraints = ("any", "separable", *RANK_KIND_TARGETS)
    seeds = [child_seed(65, i) for i in range(200)]
    want = {c: [random_xparams(s, c) for s in seeds] for c in constraints}
    monkeypatch.setattr(ensemble, "MAX_TRIES", 0)
    for c in constraints:
        assert [random_xparams(s, c) for s in seeds] == want[c]


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(seed=st.integers(0, MASK64), index=st.integers(0, 2**32),
       constraint=st.sampled_from(("any", "entangled", "separable", *RANK_KIND_TARGETS)))
def test_every_draw_meets_its_constraint(seed, index, constraint):
    p = random_xparams(child_seed(seed, index), constraint)
    if constraint == "any":
        assert is_physical(p)
    elif constraint in ("entangled", "separable"):
        assert is_separable(p) == (constraint == "separable")
    else:
        rank, kind = map(int, constraint.split("_")[1::2])
        assert classify_rank(p) == RankClass(rank, kind)


def test_random_xparams_unknown_constraint():
    with pytest.raises(ValueError):
        random_xparams(1, "rank_5_kind_1")
    with pytest.raises(ValueError):
        random_xparams(1, "pure")


def test_random_xparams_determinism():
    assert random_xparams(99, "entangled") == random_xparams(99, "entangled")


def test_random_unitary():
    for i in range(20):
        u = random_unitary(child_seed(64, i))
        assert is_unitary(u)
    np.testing.assert_array_equal(random_unitary(5), random_unitary(5))


def test_random_xparams_frozen_draws():
    # the first 50 draws of seed 2026 under every constraint, as exact hex
    h = hashlib.sha256()
    for constraint in ("any", "entangled", "separable", *RANK_KIND_TARGETS):
        for i in range(50):
            p = random_xparams(child_seed(2026, i), constraint)
            fields = (p.theta, p.phi, p.psi, p.x, p.y, p.mu, p.nu)
            h.update((" ".join(float(v).hex() for v in fields) + "\n").encode())
    assert h.hexdigest() == FROZEN_DRAWS_SHA256


def test_ginibre_frozen_draws():
    # the first 50 draws of seed 2026 of every density kind, then of
    # random_unitary, as their raw bytes
    h = hashlib.sha256()
    for kind in DENSITY_KINDS:
        for i in range(50):
            h.update(random_density(child_seed(2026, i), kind).tobytes())
    for i in range(50):
        h.update(random_unitary(child_seed(2026, i)).tobytes())
    assert h.hexdigest() == FROZEN_GINIBRE_SHA256


@pytest.mark.parametrize("seed", [-1, -(2**70) + 3, 2**64, 2**64 + 12345, 2**130 - 1])
def test_ginibre_seed_reads_mod_2_64(seed):
    for kind in DENSITY_KINDS:
        np.testing.assert_array_equal(random_density(seed, kind),
                                      random_density(seed & MASK64, kind))
    np.testing.assert_array_equal(random_unitary(seed), random_unitary(seed & MASK64))


def test_ginibre_reads_the_normal_stream():
    # the reference loop: entries filled row-major from SplitMix64.normal()
    # pairs, real part first
    seeds = [0, 1, 2**63, MASK64, -1] + [child_seed(7, i) for i in range(40)]
    for seed in seeds:
        for cols in (1, 2, 3, 4):
            rng = SplitMix64(seed)
            want = np.array([[complex(rng.normal(), rng.normal()) for _ in range(cols)]
                             for _ in range(4)])
            assert _ginibre(seed, 4, cols).tobytes() == want.tobytes()


# every read of a seed, by the parameter it reads
SEED_READS = {
    "SplitMix64": (lambda v: SplitMix64(v).next_u64(), "seed"),
    "child_seed's seed": (lambda v: child_seed(v, 3), "seed"),
    "child_seed's index": (lambda v: child_seed(7, v), "index"),
    "random_density": (lambda v: random_density(v, "rank_2").tobytes(), "seed"),
    "random_unitary": (lambda v: random_unitary(v).tobytes(), "seed"),
    "random_xparams": (lambda v: random_xparams(v, "entangled"), "seed"),
}
NOT_INTEGERS = ("a", "7", 1.5, 2.0, None, np.float64(3.0), 1 + 0j, [1])
INTEGERS = (True, False, np.int64(-3), np.int32(5), np.uint64(7), np.uint64(MASK64),
            np.int64(-(2**63)))


@pytest.mark.parametrize("read", SEED_READS)
@pytest.mark.parametrize("value", NOT_INTEGERS, ids=repr)
def test_a_seed_that_is_not_an_integer_raises_naming_it(read, value):
    call, name = SEED_READS[read]
    with pytest.raises(TypeError, match=f"^{re.escape(f'{name} {value!r} is not an integer')}$"):
        call(value)


@pytest.mark.parametrize("read", SEED_READS)
@pytest.mark.parametrize("value", INTEGERS, ids=repr)
def test_an_integer_seed_reads_as_its_int(read, value):
    # numpy integers included, with no overflow warning or error
    call, _ = SEED_READS[read]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert call(value) == call(int(value))
