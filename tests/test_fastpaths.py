"""Each fast path on the checking hot path against the plain code it replaces.

The generated product kernels must reproduce `_t_mul` bit for bit, except the
sign of a NaN (the fold writes `x - y` for `x + (-y)`), the sum and difference
kernels `_t_add` and `_t_sub`, and the scaling kernels `s * x` on binary64 and
what `_canon(s * x)` returns on exact, value and type.  The sampler must
reproduce `Random.randint`.  Any difference here would change reports.
"""

import dis
import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given

from triprod import BINARY64, DIMS, EXACT, HNum, check_identities, check_identity, mul, scale
from triprod.core import _ADD, _KERNELS, _SUB, BACKENDS, _canon, _t_add, _t_mul, _t_sub
from triprod import dsl
from triprod.dsl import SAMPLE_BLOCK, _sampler

INTS = st.integers(min_value=-10**30, max_value=10**30)
FRACTIONS = st.fractions(max_denominator=10**6)
# Up to 1e150, so a product of two coefficients stays finite.
FLOATS = st.floats(min_value=-1e150, max_value=1e150, allow_nan=False)


def _exact(x):
    """Type and shortest repr: equal only if bit-identical (tells -0.0 from 0.0),
    except that repr prints every NaN as `nan`, whatever its sign."""
    return type(x), repr(x)


def _pairs(coeff):
    return st.sampled_from(DIMS).flatmap(
        lambda dim: st.tuples(
            st.lists(coeff, min_size=dim, max_size=dim).map(tuple),
            st.lists(coeff, min_size=dim, max_size=dim).map(tuple),
        )
    )


def _assert_kernel_matches(a, b, backend):
    dim = len(a)
    got = mul(HNum(dim, a, backend), HNum(dim, b, backend)).coeffs
    assert list(map(_exact, got)) == list(map(_exact, _t_mul(a, b)))


@given(_pairs(INTS))
def test_kernel_matches_recursion_on_ints(pair):
    _assert_kernel_matches(*pair, EXACT)


@given(_pairs(st.one_of(INTS, FRACTIONS)))
def test_kernel_matches_recursion_on_fractions(pair):
    _assert_kernel_matches(*pair, EXACT)


@given(_pairs(FLOATS))
def test_kernel_matches_recursion_bit_for_bit_on_floats(pair):
    _assert_kernel_matches(*pair, BINARY64)


@pytest.mark.parametrize("dim", DIMS)
def test_kernel_matches_recursion_on_random_floats(dim):
    # Hypothesis favours simple floats, whose products and sums are often
    # exact; uniformly drawn mantissas round at almost every operation, so a
    # reordered sum shows here.
    rng = random.Random(dim)

    def coeffs():
        return tuple(rng.uniform(-1, 1) * 10.0 ** rng.randint(-150, 150) for _ in range(dim))

    for _ in range(300):
        _assert_kernel_matches(coeffs(), coeffs(), BINARY64)
        _assert_kernel_matches(tuple(rng.uniform(-1, 1) for _ in range(dim)),
                               tuple(rng.uniform(-1, 1) for _ in range(dim)), BINARY64)


@given(_pairs(st.floats(min_value=-1e150, max_value=1e150)
              | st.sampled_from([0.0, -0.0, 1.0, -1.0, math.inf, -math.inf, math.nan])))
def test_kernel_matches_recursion_with_infinities_and_nans(pair):
    _assert_kernel_matches(*pair, BINARY64)


def test_kernel_keeps_the_sign_of_a_cancelled_sum():
    # Coefficient 7 adds (-x) + (-y) for x = a4*b3 = 0.0 and y = a5*b2 = -0.0:
    # 0.0 in the recursion, where -(x + y) would give -0.0.
    a = (0.0, 1.0, -0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    b = (-0.0, -0.0, -0.0, 0.0, -0.0, 0.0, 0.0, -0.0)
    _assert_kernel_matches(a, b, BINARY64)
    assert repr(mul(HNum(8, a, BINARY64), HNum(8, b, BINARY64)).coeffs[7]) == "0.0"


SPECIALS = [0.0, -0.0, 1.0, -1.0, 2.5, math.inf, -math.inf, math.nan]


def test_dim2_kernel_is_the_complex_product():
    # The recursion at dim 2, its products' operands in either order.
    for a0, a1, b0, b1 in itertools.product(SPECIALS, repeat=4):
        got = _KERNELS[2]((a0, a1), (b0, b1))
        assert list(map(repr, got)) == [repr(a0 * b0 - a1 * b1), repr(a0 * b1 + a1 * b0)]


def test_dim4_kernel_is_the_dim4_case_of_the_definition():
    rng = random.Random(4)
    for _ in range(3000):
        a0, a1, a2, a3 = a = tuple(rng.choice(SPECIALS + [rng.uniform(-1, 1)]) for _ in range(4))
        b0, b1, b2, b3 = b = tuple(rng.choice(SPECIALS + [rng.uniform(-1, 1)]) for _ in range(4))
        expected = (
            a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
            a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
            a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
            a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0,
        )
        assert list(map(repr, _KERNELS[4](a, b))) == list(map(repr, expected))


def _kernel_ops(dim):
    """(multiplications, additions and subtractions, negations) in the kernel."""
    ops = Counter()
    for ins in dis.get_instructions(_KERNELS[dim]):
        # Python 3.11 on: BINARY_OP, its operator in argrepr; 3.10: BINARY_ADD etc.
        ops[ins.argrepr if ins.opname == "BINARY_OP" else ins.opname] += 1
    return (ops["*"] + ops["BINARY_MULTIPLY"],
            ops["+"] + ops["-"] + ops["BINARY_ADD"] + ops["BINARY_SUBTRACT"],
            ops["UNARY_NEGATIVE"])


@pytest.mark.parametrize("dim,ops", [(1, (1, 0, 0)), (2, (4, 2, 0)), (4, (16, 12, 0)),
                                     (8, (64, 56, 1))])
def test_kernel_folds_its_negations_into_sums(dim, ops):
    # The recursion's conjugations negate 24 scalars per dim-8 product.  Each
    # is folded into the sum that takes it, but for the one sum of two
    # negated terms: see the test above.
    assert _kernel_ops(dim) == ops


@pytest.mark.parametrize("dim", DIMS)
def test_kernel_keeps_signed_zeros(dim):
    a = tuple(-0.0 if i % 2 else 0.0 for i in range(dim))
    b = tuple(0.0 if i % 3 else -0.0 for i in range(dim))
    _assert_kernel_matches(a, b, BINARY64)


@pytest.mark.parametrize("bound", [1, 9, 127, 128, 1000])
@pytest.mark.parametrize("seed", [0, 1, 42, 2024])
def test_sampler_draws_the_randint_sequence(bound, seed):
    # 127 is the widest range drawn a block at a time from words' top bytes,
    # 128 the first drawn value by value.
    rng = random.Random(seed)
    draw = _sampler(rng, bound)
    got = [x for count in (8, 1, 4, 8, 2, 8) * 20 for x in draw(count)]
    ref = random.Random(seed)
    assert got == [ref.randint(-bound, bound) for _ in range(len(got))]
    assert rng.getstate() == ref.getstate()


@pytest.mark.parametrize("bound", [0, 1, 9, 100, 127, 128])
def test_sampler_block_draws_keep_the_randint_state(bound):
    # Draws of a block of trials' values and of sizes around it; each draw
    # ends with the generator where `randint` leaves it.
    rng, ref = random.Random(bound), random.Random(bound)
    draw = _sampler(rng, bound)
    for count in (0, 1, 8 * SAMPLE_BLOCK - 1, 8 * SAMPLE_BLOCK, 8 * SAMPLE_BLOCK + 1, 3, 0, 5000):
        assert draw(count) == [ref.randint(-bound, bound) for _ in range(count)]
        assert rng.getstate() == ref.getstate()


@pytest.mark.parametrize("block", [1, 7, SAMPLE_BLOCK])
def test_checks_draw_the_same_samples_in_any_block_size(monkeypatch, block):
    # 50 trials: one block, several and one per trial give the same reports.
    lines = ["u1*u2 == u2*u1", "inner(u1, u2) == inner(u2, u1) + 1", "3*e3 == e3", "u1 == u1"]
    kw = dict(dim=4, trials=50, seed=5)
    expected = [check_identity(line, **kw) for line in lines]
    monkeypatch.setattr(dsl, "SAMPLE_BLOCK", block)
    assert list(check_identities(lines, **kw)) == expected
    assert expected[0].status == expected[1].status == expected[2].status == "FAIL"


def test_an_identity_without_variables_runs_every_trial():
    # No variables to bind: each trial is the empty tuple, not no trial.
    for trials in (1, 5, SAMPLE_BLOCK + 1):
        report = check_identity("3*e7 == e7", trials=trials)
        assert (report.status, report.trials, report.failures) == ("FAIL", trials, trials)
        assert report.witness == {}
    assert check_identity("e7*e7 == -i0", trials=5).trials == 5


def test_no_draw_asks_for_more_than_a_block(monkeypatch):
    # Memory stays flat at any trial count: a draw asks the generator for at
    # most one block of trials' words at a time.
    asked = []
    sampler = dsl._sampler

    class Recorded:
        def __init__(self, rng):
            self.rng = rng

        def getrandbits(self, k):
            asked.append(k)
            return self.rng.getrandbits(k)

    monkeypatch.setattr(dsl, "_sampler", lambda rng, bound: sampler(Recorded(rng), bound))
    report = check_identity("u1*u2 == u2*u1", dim=2, trials=100_000)
    assert (report.status, report.trials) == ("PASS", 100_000)
    assert max(asked) <= 32 * 2 * 2 * SAMPLE_BLOCK
    assert sum(k == 32 * 2 * 2 * SAMPLE_BLOCK for k in asked) == 100_000 // SAMPLE_BLOCK


def test_sampler_at_bound_zero_still_draws():
    # randint(0, 0) consumes generator output too; the sampler must match.
    rng, ref = random.Random(3), random.Random(3)
    assert _sampler(rng, 0)(5) == [ref.randint(0, 0) for _ in range(5)]
    assert rng.getstate() == ref.getstate()


def test_negative_coefficient_range_is_rejected():
    # An empty range: randint raises, and the sampler must not loop forever.
    with pytest.raises(ValueError):
        check_identity("u1 == u1", dim=2, trials=1, coeff_range=-1)


@given(
    st.one_of(FRACTIONS, st.integers(min_value=-50, max_value=50)),
    # Ints, Fractions, and the integral Fractions kernels return from Fraction
    # inputs (Fraction(3, 2) * 2 is Fraction(3, 1), not 3).
    st.sampled_from(DIMS).flatmap(
        lambda dim: st.lists(st.one_of(INTS, FRACTIONS, INTS.map(Fraction)),
                             min_size=dim, max_size=dim).map(tuple)),
)
def test_scale_matches_canonical_products(s, xs):
    got = scale(s, HNum(len(xs), xs, EXACT)).coeffs
    assert list(map(_exact, got)) == [_exact(_canon(Fraction(s) * x)) for x in xs]


def test_scale_halving_keeps_ints_and_odd_halves():
    got = scale(Fraction(1, 2), HNum(4, (2, 3, -4, -5), EXACT)).coeffs
    assert got == (1, Fraction(3, 2), -2, Fraction(-5, 2))
    assert [type(c) for c in got] == [int, Fraction, int, Fraction]


def test_scale_with_fraction_coefficients_takes_the_general_path():
    got = scale(Fraction(2, 3), HNum(2, (Fraction(3, 2), 5), EXACT)).coeffs
    assert got == (1, Fraction(10, 3))
    assert [type(c) for c in got] == [int, Fraction]


RATIONALS = st.one_of(INTS, FRACTIONS, INTS.map(Fraction))
# Every float, the infinities and NaN among them, and the signed zeros often.
ANY_FLOATS = st.floats() | st.sampled_from(SPECIALS)


def _vectors(coeff, dim):
    return st.lists(coeff, min_size=dim, max_size=dim).map(tuple)


def _assert_vector_kernels_match(dim, s, a, b, backend):
    for kernel, plain in ((_ADD, _t_add), (_SUB, _t_sub)):
        assert list(map(_exact, kernel[dim](a, b))) == list(map(_exact, plain(a, b)))
    if backend == EXACT:
        expected = [_canon(Fraction(s) * x) for x in a]
    else:
        expected = [s * x for x in a]
    got = BACKENDS[backend].scale[dim](s, a)
    assert list(map(_exact, got)) == list(map(_exact, expected))


@pytest.mark.parametrize("dim", DIMS)
@given(data=st.data())
def test_vector_kernels_match_the_plain_code_on_rationals(dim, data):
    s = data.draw(RATIONALS)
    a, b = data.draw(_vectors(RATIONALS, dim)), data.draw(_vectors(RATIONALS, dim))
    _assert_vector_kernels_match(dim, s, a, b, EXACT)


@pytest.mark.parametrize("dim", DIMS)
@given(data=st.data())
def test_vector_kernels_match_the_plain_code_bit_for_bit_on_floats(dim, data):
    s = data.draw(ANY_FLOATS)
    a, b = data.draw(_vectors(ANY_FLOATS, dim)), data.draw(_vectors(ANY_FLOATS, dim))
    _assert_vector_kernels_match(dim, s, a, b, BINARY64)


@pytest.mark.parametrize("dim", DIMS)
def test_vector_kernels_keep_signed_zeros_infinities_and_nans(dim):
    rng = random.Random(dim)
    for _ in range(500):
        s = rng.choice(SPECIALS)
        a, b = (tuple(rng.choice(SPECIALS) for _ in range(dim)) for _ in (0, 1))
        _assert_vector_kernels_match(dim, s, a, b, BINARY64)
