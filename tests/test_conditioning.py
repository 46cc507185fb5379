import dataclasses
import gc
import itertools
import math
import re
import warnings
import weakref
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from layoutprior import ClassVocabulary, ProposalBatch
from layoutprior import conditioning
from layoutprior.conditioning import (AssociationKind, AssociationPolicy,
                                      MappingPolicy, NodeFeatures,
                                      association, band_association,
                                      concat_features,
                                      condition_features, load_proposals,
                                      proposals_from_obj, soft_mapping)
from layoutprior.core import (BBox, ParseError, ShapeError, centres,
                              same_bits)
from layoutprior.prior import BandConfig, CoOccurrenceGraphSet
from layoutprior.rescore import RescoreConfig, rescore

from conftest import (assert_rewrite_stable, finite_matrices,
                      proposals_to_obj, random_embed, random_node_features,
                      save_proposals)


# Any finite float, with the float range's ends, subnormals and both
# zeros drawn often.
EDGE_FLOATS = (st.floats(allow_nan=False, allow_infinity=False)
               | st.sampled_from([1.7e308, -1.7e308, 1.5e308, -1.2e308,
                                  5e-324, -5e-324, 2.5e-308, 0.0, -0.0]))


def batch_at(y_centers, n_classes=3, height=100.0, logits=None):
    coords = np.reshape([(0, y - 5, 10, y + 5) for y in y_centers], (-1, 4))
    if logits is None:
        logits = np.zeros((len(coords), n_classes))
    return ProposalBatch(coords, logits, height)


def gauss(x, sigma=0.3):
    return math.exp(-0.5 * (x / sigma) ** 2) / math.sqrt(2 * math.pi * sigma ** 2)


class TestBandAssociation:
    two_bands = BandConfig(2)  # centroids 0.25, 0.75

    def test_symmetric_midpoint(self):
        alpha = band_association(batch_at([50.0]), self.two_bands,
                                 AssociationPolicy())
        assert np.allclose(alpha, [[0.5, 0.5]], atol=1e-12)

    def test_single_tie_to_lower_index(self):
        alpha = band_association(batch_at([50.0]), self.two_bands,
                                 AssociationPolicy(AssociationKind.SINGLE))
        assert alpha.tolist() == [[1.0, 0.0]]

    def test_gaussian_quarter_point(self):
        # center at 0.25: displacements 0 and -0.5 against the centroids
        alpha = band_association(batch_at([25.0]), self.two_bands,
                                 AssociationPolicy())
        g0, g5 = gauss(0.0), gauss(0.5)
        expected = [g0 / (g0 + g5), g5 / (g0 + g5)]
        assert np.allclose(alpha, [expected], atol=1e-12)
        assert np.allclose(alpha, [[0.8004, 0.1996]], atol=5e-5)

    @pytest.mark.parametrize("kind", list(AssociationKind))
    def test_centre_past_height_range_quiet(self, kind):
        """A centre over a height so small that the quotient overflows is
        at t = +inf, with no warning: below every band."""
        batch = ProposalBatch(np.array([[0.0, 600.0, 10.0, 700.0]]),
                              np.zeros((1, 2)), 5e-324)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            alpha = band_association(batch, BandConfig(3),
                                     AssociationPolicy(kind))
        want = [1 / 3] * 3 if kind is AssociationKind.EQUAL else [0, 0, 1]
        assert alpha.tolist() == [want]

    def test_equal(self):
        alpha = band_association(batch_at([10.0, 90.0]), self.two_bands,
                                 AssociationPolicy(AssociationKind.EQUAL))
        assert np.allclose(alpha, 0.5)

    @pytest.mark.parametrize("kind", list(AssociationKind))
    def test_rows_stochastic(self, rng, kind):
        bands = BandConfig(7)
        batch = batch_at(rng.uniform(0, 100, size=20))
        alpha = band_association(batch, bands,
                                 AssociationPolicy(kind, sigma=0.3))
        assert np.all(alpha >= 0)
        assert np.allclose(alpha.sum(axis=1), 1.0, atol=1e-9)

    def test_tiny_sigma_matches_single(self, rng):
        bands = BandConfig(5)
        centers = rng.uniform(0, 100, size=30)
        # keep centers away from centroid midpoints so the nearest band
        # is unique
        centers = np.array([c for c in centers
                            if min(abs(c / 100 - m) for m in
                                   (0.2, 0.4, 0.6, 0.8)) > 1e-3])
        batch = batch_at(centers)
        tiny = band_association(batch, bands,
                                AssociationPolicy(sigma=1e-6))
        single = band_association(batch, bands,
                                  AssociationPolicy(AssociationKind.SINGLE))
        assert np.array_equal(np.argmax(tiny, axis=1),
                              np.argmax(single, axis=1))

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(st.lists(st.tuples(EDGE_FLOATS, EDGE_FLOATS), max_size=8),
           st.floats(1.0, 1e6), st.integers(1, 6),
           st.sampled_from(AssociationKind))
    def test_centres_match_scalar_formula(self, pairs, height, n_bands,
                                          kind):
        """The centres that band_association hands to `association` are
        (y1 + y2) / 2 of Python floats, or y1 / 2 + y2 / 2 where the sum
        overflows, over the height, bit for bit; so are the weights."""
        ys = [sorted(p) for p in pairs]
        mids = [(lo + hi) / 2.0 for lo, hi in ys]
        mids = [m if math.isfinite(m) else lo / 2.0 + hi / 2.0
                for m, (lo, hi) in zip(mids, ys)]
        t = np.array(mids, dtype=np.float64) / height
        coords = np.reshape([(0.0, lo, 0.0, hi) for lo, hi in ys], (-1, 4))
        batch = ProposalBatch(coords, np.zeros((len(ys), 1)), height)
        bands, policy = BandConfig(n_bands), AssociationPolicy(kind)
        seen = []

        def spy(t, *args):
            seen.append(t)
            return association(t, *args)

        with mock.patch("layoutprior.conditioning.association", spy):
            got = band_association(batch, bands, policy)
        assert len(seen) == 1 and seen[0].tobytes() == t.tobytes()
        assert got.tobytes() == association(t, bands, policy).tobytes()


def unguarded_gaussian(t, bands, mu, sigma):
    """The Gaussian weights as the plain formula gives them, warnings
    silenced, and the rows where two adjacent exponents on one side of
    t - mu round to one float; None where its prefactor raises."""
    try:
        log_pref = -0.5 * math.log(2.0 * math.pi * sigma ** 2)
    except (OverflowError, ValueError):
        return None
    with np.errstate(all="ignore"):
        delta = t[:, None] - bands.centroids[None, :]
        log_alpha = log_pref - 0.5 * ((delta - mu) / sigma) ** 2
        alpha = np.exp(log_alpha - log_alpha.max(axis=1, keepdims=True))
        below = delta - mu < 0
        tied = ((log_alpha[:, 1:] == log_alpha[:, :-1])
                & (below[:, 1:] == below[:, :-1])).any(axis=1)
        return alpha / alpha.sum(axis=1, keepdims=True), tied


def exact_gaussian(t, bands, mu, sigma):
    """The Gaussian weights of one finite centre `t`, from exponents
    computed in exact arithmetic."""
    t, mu, sigma = Fraction(t), Fraction(mu), Fraction(sigma)
    x = [-(t - Fraction(c) - mu) ** 2 / (2 * sigma ** 2)
         for c in bands.centroids]
    top = max(x)
    w = np.array([math.exp(v - top) if v - top > -1000 else 0.0 for v in x])
    return w / w.sum()


def log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(
        lambda e: min(max(10.0 ** e, lo), hi))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.integers(1, 6), st.floats(0.05, 1.0),
       st.lists(st.one_of(st.floats(-2.0, 3.0), st.sampled_from(
           [0.0, 0.25, 0.5, 1.0, 1e16, -1e16, 1e300, -1e300, math.inf,
            -math.inf])), max_size=12),
       st.one_of(st.floats(-1e300, 1e300), st.floats(-2.0, 2.0),
                 st.tuples(st.sampled_from([-1.0, 1.0]),
                           log_uniform(1e-300, 1e300)).map(math.prod)),
       st.one_of(st.floats(1e-300, 1e300), log_uniform(1e-300, 1e300)))
@example(3, 1 / 3, [1.0, 1e15, 1e16, -1e16], 0.0, 0.3)
def test_gaussian_finite_for_every_accepted_policy(n_bands, width, t, mu,
                                                   sigma):
    """Any finite mu and sigma in [1e-300, 1e300]: every row is finite,
    non-negative and sums to 1, quietly. It equals the plain formula
    wherever that is finite and no two adjacent exponents on one side of
    t - mu round to one float; where they do, it is within 1e-9 of the
    weights in exact arithmetic. Where every exponent overflows it is a
    one-hot at the band of least |delta - mu|, lowest index on ties. Where
    mu lies below or above every delta of a row, that distance is taken
    in exact arithmetic from t, the centroid and mu, as delta itself may
    round to one value in all bands; t = +-inf takes the end band."""
    bands = BandConfig(n_bands, width)
    t = np.array(t, dtype=np.float64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        alpha = association(t, bands, AssociationPolicy(mu=mu, sigma=sigma))
    assert alpha.shape == (len(t), n_bands)
    assert np.isfinite(alpha).all() and (alpha >= 0).all()
    assert np.allclose(alpha.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    plain = unguarded_gaussian(t, bands, mu, sigma)
    if plain is not None:
        want, tied = plain
        finite = np.isfinite(want).all(axis=1)
        same = finite & ~tied
        assert np.array_equal(alpha[same].view(np.uint64),
                              want[same].view(np.uint64))
        for i in np.flatnonzero(finite & tied):
            assert np.allclose(alpha[i], exact_gaussian(t[i], bands, mu, sigma),
                               rtol=0, atol=1e-9)
    with np.errstate(all="ignore"):
        delta = t[:, None] - bands.centroids[None, :]
        lost = np.isinf(((delta - mu) / sigma) ** 2).all(axis=1)
        nearest = np.argmin(np.abs(delta - mu), axis=1)
    for i in np.flatnonzero(lost):
        if not ((mu < delta[i]).all() or (mu > delta[i]).all()):
            continue
        if math.isinf(t[i]):
            nearest[i] = n_bands - 1 if t[i] > 0 else 0
        else:
            exact = [abs(Fraction(t[i]) - Fraction(c) - Fraction(mu))
                     for c in bands.centroids]
            nearest[i] = exact.index(min(exact))
    assert np.array_equal(alpha[lost], np.eye(n_bands)[nearest[lost]])


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.integers(1, 8), st.floats(0.05, 1.0),
       st.lists(st.floats(allow_nan=False) | st.sampled_from(
           [1e16, -1e16, 1e300, math.inf, -math.inf, 0.5, 1.0]),
           max_size=12))
@example(3, 1 / 3, [10.0, 1e8, 1e16, 1e300, math.inf])
def test_single_monotone_in_t(n_bands, width, t):
    """Single assignment never moves a centre up the bands as it moves
    down the page, out to t = +-inf: past the last centroid it takes the
    last band, before the first the first."""
    bands, t = BandConfig(n_bands, width), np.sort(np.array(t, float))
    band = association(t, bands, AssociationPolicy(
        AssociationKind.SINGLE)).argmax(axis=1)
    assert (np.diff(band) >= 0).all()
    assert (band[t >= bands.centroids[-1]] == n_bands - 1).all()
    assert (band[t <= bands.centroids[0]] == 0).all()


# t = 1, 10, ..., 1e300 and +inf.
POWERS_OF_TEN = np.array([10.0 ** k for k in range(301)] + [math.inf])


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.sampled_from(AssociationKind), st.integers(1, 12),
       st.floats(0.05, 1.0),
       st.tuples(st.sampled_from([-1.0, 0.0, 1.0]),
                 log_uniform(1e-300, 1e300)).map(math.prod),
       log_uniform(1e-300, 1e300))
@example(AssociationKind.GAUSSIAN, 3, 1 / 3, 0.0, 0.3)
def test_argmax_band_monotone_in_t(kind, n_bands, width, mu, sigma):
    """The band of greatest weight never moves up the bands as a centre
    moves down the page, t = 1, 10, ..., 1e300, +inf, whatever mu and
    sigma; at the defaults, t = 1e16 is where the distances round to one
    float in every band and the plain formula's weights turn uniform."""
    policy = AssociationPolicy(kind, mu, sigma)
    band = association(POWERS_OF_TEN, BandConfig(n_bands, width),
                       policy).argmax(axis=1)
    assert (np.diff(band) >= 0).all()


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.integers(1, 64), st.lists(st.floats(0.0, 1.0), max_size=12),
       st.sampled_from([-1.0, 1.0]))
@example(4, [0.1, 0.5, 0.93], -1.0)
def test_gaussian_limit_matches_large_finite_mu(n_bands, t, sign):
    """Where every exponent overflows at mu = +-1e300, the weights' limit
    picks the band that the plain formula picks at mu = +-1e10."""
    bands, t = BandConfig(n_bands), np.array(t, dtype=np.float64)
    limit = association(t, bands, AssociationPolicy(mu=sign * 1e300))
    finite = association(t, bands, AssociationPolicy(mu=sign * 1e10))
    assert np.array_equal(limit.argmax(axis=1), finite.argmax(axis=1))


def direct_association(batch, bands, policy):
    """`association` of a batch's centres, computed without the memo."""
    return association(centres(batch.coords, batch.layout_height), bands,
                       policy)


def counting_association():
    """A patch of the `association` that band_association calls, counting
    its calls: a call that reads the memo makes none."""
    return mock.patch("layoutprior.conditioning.association",
                      wraps=association)


def kept_weights():
    return conditioning._last_association[3]


@settings(derandomize=True, deadline=None, max_examples=100)
@given(st.data())
def test_association_memo_matches_direct(data):
    """Interleaved band_association and rescore calls over a few batches,
    two band configurations and all three association kinds: every result
    has the bits of `association` computed directly, is a new writeable
    array, and is read from the memo exactly when the previous association
    was of the same batch object with equal bands and policy."""
    C = data.draw(st.integers(1, 4))
    coord = st.floats(-50.0, 250.0)
    batches = []
    for _ in range(data.draw(st.integers(1, 3))):
        ys = data.draw(st.lists(st.tuples(coord, coord), max_size=6))
        coords = np.reshape([(0.0, min(y), 1.0, max(y)) for y in ys], (-1, 4))
        logits = data.draw(arrays(np.float64, (len(ys), C),
                                  elements=st.floats(-20.0, 20.0)))
        batches.append(ProposalBatch(coords, logits,
                                     data.draw(st.floats(1.0, 400.0))))
    band_sets = [BandConfig(data.draw(st.integers(1, 6))),
                 BandConfig(data.draw(st.integers(1, 6)),
                            data.draw(st.floats(0.05, 1.0)))]
    mu, sigma = data.draw(st.floats(-1.0, 1.0)), data.draw(st.floats(0.01, 2.0))
    policies = [AssociationPolicy(), AssociationPolicy(mu=-0.0),
                AssociationPolicy(mu=mu, sigma=sigma),
                AssociationPolicy(AssociationKind.SINGLE),
                AssociationPolicy(AssociationKind.EQUAL)]
    vocab = ClassVocabulary(tuple(f"c{i}" for i in range(C)))
    rng = np.random.Generator(np.random.PCG64(data.draw(st.integers(0, 99))))
    graph_sets = [CoOccurrenceGraphSet(vocab, bands, rng.uniform(
        0, 1, (bands.n_bands, C, C))) for bands in band_sets]

    def copy(batch):  # equal fields, another identity
        return ProposalBatch(batch.coords, batch.logits, batch.layout_height)

    # Computed first, on copies, which the memo cannot serve and keeps
    # only while they live.
    wanted = {(b, g, p): (
        direct_association(batch, band_sets[g], policies[p]).tobytes(),
        rescore(copy(batch), graph_sets[g], RescoreConfig(
            association=policies[p])).logits.tobytes())
        for b, batch in enumerate(batches) for g in range(2)
        for p in range(len(policies))}
    last = None  # the batch, bands and policy of the last association
    # Each step calls with the last step's arguments, or with one of them
    # drawn anew, or with the batch replaced by an equal copy.
    key = [0, 0, 0]  # indices of the batch, bands and policy
    sizes = len(batches), 2, len(policies)
    steps = data.draw(st.lists(st.tuples(
        st.sampled_from(["associate", "rescore"]),
        st.sampled_from(["same", "batch", "bands", "policy", "fresh copy"])),
        min_size=1, max_size=16))
    for step, move in steps:
        if move == "fresh copy":
            batches[key[0]] = copy(batches[key[0]])
        elif move != "same":
            i = ["batch", "bands", "policy"].index(move)
            key[i] = data.draw(st.integers(0, sizes[i] - 1))
        b, g, p = key
        batch, bands, policy = batches[b], band_sets[g], policies[p]
        want_alpha, want_logits = wanted[b, g, p]
        hit = (last is not None and last[0] is batch and last[1] == bands
               and last[2] == policy)
        with counting_association() as spy:
            if step == "associate":
                alpha = band_association(batch, bands, policy)
                assert alpha.tobytes() == want_alpha
                assert alpha.flags.writeable
                assert not np.shares_memory(alpha, kept_weights())
                alpha[...] = np.nan  # an edit the next call must not see
            else:
                got = rescore(batch, graph_sets[g],
                              RescoreConfig(association=policy))
                assert got.logits.tobytes() == want_logits
        assert spy.call_count == (not hit)
        assert kept_weights().tobytes() == want_alpha
        last = batch, bands, policy


class TestAssociationMemo:
    bands, policy = BandConfig(4), AssociationPolicy()

    def test_results_are_new_arrays(self):
        """Successive results for one batch are writeable and share no
        memory with each other or the memo; an edit to one leaves the
        next call's result as it was."""
        batch = batch_at([10.0, 60.0, 90.0])
        first = band_association(batch, self.bands, self.policy)
        want = first.tobytes()
        with counting_association() as spy:
            second = band_association(batch, self.bands, self.policy)
            first[...] = -1.0
            third = band_association(batch, self.bands, self.policy)
        assert spy.call_count == 0
        kept = kept_weights()
        assert not kept.flags.writeable
        for a, b in itertools.combinations([first, second, third, kept], 2):
            assert not np.shares_memory(a, b)
        assert second.tobytes() == third.tobytes() == want
        assert first.flags.writeable and second.flags.writeable

    @pytest.mark.parametrize("change", [
        lambda batch, bands, policy: (
            ProposalBatch(batch.coords.copy(), batch.logits,
                          batch.layout_height), bands, policy),
        lambda batch, bands, policy: (
            batch, bands, dataclasses.replace(policy, sigma=0.2)),
        lambda batch, bands, policy: (
            batch, bands, dataclasses.replace(policy, mu=0.1)),
        lambda batch, bands, policy: (
            batch, bands, AssociationPolicy(AssociationKind.SINGLE)),
        lambda batch, bands, policy: (batch, BandConfig(5), policy),
    ], ids=["equal coords, other batch", "sigma", "mu", "kind", "band count"])
    def test_recomputed(self, change):
        batch = batch_at([10.0, 35.0, 60.0, 90.0])
        band_association(batch, self.bands, self.policy)
        args = change(batch, self.bands, self.policy)
        with counting_association() as spy:
            alpha = band_association(*args)
        assert spy.call_count == 1
        assert alpha.tobytes() == direct_association(*args).tobytes()

    def test_height_is_a_private_float(self):
        """An edit to the caller's 0-d height array changes neither the
        batch nor its weights, read from the memo or recomputed."""
        height = np.array(100.0)
        batch = ProposalBatch([[0, 10, 5, 20]], np.zeros((1, 3)), height)
        assert type(batch.layout_height) is float
        want = band_association(batch, self.bands, self.policy).tobytes()
        height[...] = 20.0
        assert batch.layout_height == 100.0
        assert band_association(batch, self.bands,
                                self.policy).tobytes() == want
        assert direct_association(batch, self.bands,
                                  self.policy).tobytes() == want

    @pytest.mark.parametrize("mu, sigma", [
        (np.longdouble(0.5), 0.3), (0, 1), (np.float32(0.25), np.int64(2))])
    def test_policy_holds_floats(self, mu, sigma):
        """A policy equal to one of floats, whose weights the memo may
        serve for it, computes that policy's bits."""
        policy = AssociationPolicy(mu=mu, sigma=sigma)
        floats = AssociationPolicy(mu=float(mu), sigma=float(sigma))
        assert policy == floats
        assert type(policy.mu) is float and type(policy.sigma) is float
        t = np.linspace(-0.5, 1.5, 9)
        alpha = association(t, self.bands, policy)
        assert alpha.dtype == np.float64
        assert alpha.tobytes() == association(t, self.bands, floats).tobytes()

    def test_keeps_no_batch_alive(self):
        batch = batch_at([10.0, 60.0])
        band_association(batch, self.bands, self.policy)
        ref = weakref.ref(batch)
        del batch
        gc.collect()
        assert ref() is None


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.integers(1, 8), st.lists(EDGE_FLOATS | st.floats(-1.0, 2.0),
                                   max_size=8),
       st.floats(1e-3, 10.0), st.sampled_from(AssociationKind))
def test_signed_zero_mu_same_bits(n_bands, t, sigma, kind):
    """mu = 0.0 and mu = -0.0 are equal policies and give the same bits,
    centroids and signed zeros among the centres included."""
    bands = BandConfig(n_bands)
    t = np.array(t + bands.centroids.tolist() + [0.0, -0.0])
    zero, negative = (AssociationPolicy(kind, mu, sigma) for mu in (0.0, -0.0))
    assert zero == negative
    assert association(t, bands, zero).tobytes() == association(
        t, bands, negative).tobytes()


class TestSoftMapping:
    def test_soft_uniform(self):
        S = soft_mapping(np.zeros((1, 4)), MappingPolicy.SOFT)
        assert np.allclose(S, 0.25)

    def test_soft_analytic(self):
        S = soft_mapping(np.array([[np.log(2.0), 0.0]]), MappingPolicy.SOFT)
        assert np.allclose(S, [[2 / 3, 1 / 3]], atol=1e-12)

    def test_hard_argmax(self):
        S = soft_mapping(np.array([[5.0, 1.0, 1.0]]), MappingPolicy.HARD)
        assert S.tolist() == [[1.0, 0.0, 0.0]]

    def test_hard_tie_lowest_index(self):
        S = soft_mapping(np.array([[2.0, 2.0, 1.0]]), MappingPolicy.HARD)
        assert S.tolist() == [[1.0, 0.0, 0.0]]

    @pytest.mark.parametrize("policy", list(MappingPolicy))
    @pytest.mark.parametrize("shape", [(1, 0), (0, 0), (3,)])
    def test_logits_without_columns(self, policy, shape):
        with pytest.raises(ShapeError, match=re.escape(
                f"at least one column, got shape {shape}")):
            soft_mapping(np.zeros(shape), policy)

    def test_row_contracts(self, rng):
        logits = rng.standard_normal((10, 5)) * 3
        soft = soft_mapping(logits, MappingPolicy.SOFT)
        hard = soft_mapping(logits, MappingPolicy.HARD)
        assert np.all(soft > 0)
        assert np.allclose(soft.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(np.sort(hard, axis=1)[:, :-1] == 0)
        assert np.all(hard.sum(axis=1) == 1)

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(arrays(np.float64, st.tuples(st.integers(0, 4), st.integers(1, 4)),
                  elements=st.one_of(st.floats(), st.sampled_from(
                      [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324,
                       -2.5e-310, 1.7e308, -1.7e308]))))
    def test_hard_matches_argmax_scatter(self, logits):
        """HARD is the one-hot scatter at each row's argmax, to the byte,
        with signed zeros, infinities, NaN and subnormals in the rows."""
        want = np.zeros_like(logits)
        want[np.arange(logits.shape[0]), np.argmax(logits, axis=1)] = 1.0
        got = soft_mapping(logits, MappingPolicy.HARD)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def make_graphs(edges, n_classes):
    vocab = ClassVocabulary(tuple(f"c{i}" for i in range(n_classes)))
    return CoOccurrenceGraphSet(vocab, BandConfig(len(edges)), tuple(edges))


def loop_oracle(S, alpha, edges, W, Z):
    n_r, d_prime = S.shape[0], Z.shape[1]
    out = np.zeros((n_r, d_prime))
    for i in range(n_r):
        for j, E in enumerate(edges):
            B = S @ E @ W @ Z
            out[i] += alpha[i, j] * B[i]
    return out


def pooled_loop_oracle(S, alpha, edges, W, Z):
    """condition_features as a loop over the bands, adding each band's
    pooled class mix in ascending order."""
    pooled = np.zeros_like(S)
    for j, E in enumerate(edges):
        pooled += alpha[:, j:j + 1] * (S @ E)
    return pooled @ (W @ Z)


class TestConditionFeatures:
    @pytest.mark.parametrize("C", [1, 2, 5])
    @pytest.mark.parametrize("Nr", [1, 2, 7])
    def test_equals_band_loop(self, rng, C, Nr):
        K, Dp = 3, 4
        for Ng, policy in itertools.product(range(1, 13), MappingPolicy):
            S = soft_mapping(rng.standard_normal((Nr, C)), policy)
            alpha = rng.uniform(0, 1, size=(Nr, Ng))
            alpha /= alpha.sum(axis=1, keepdims=True)
            edges = rng.uniform(0, 1, size=(Ng, C, C))
            edges[rng.uniform(size=(Ng, C)) < 0.3] = 0.0
            graphs = make_graphs(edges, C)
            nodes = NodeFeatures(rng.standard_normal((C, K)))
            Z = rng.standard_normal((K, Dp))
            out = condition_features(S, alpha, graphs, nodes, Z)
            assert np.array_equal(
                out, pooled_loop_oracle(S, alpha, edges, nodes.matrix, Z)), Ng

    def test_identity_graphs_degenerate(self, rng):
        C, K, Dp, Ng = 4, 5, 6, 3
        S = soft_mapping(rng.standard_normal((7, C)), MappingPolicy.SOFT)
        alpha = rng.uniform(0.1, 1, size=(7, Ng))
        alpha /= alpha.sum(axis=1, keepdims=True)
        graphs = make_graphs([np.eye(C)] * Ng, C)
        nodes = NodeFeatures(rng.standard_normal((C, K)))
        Z = rng.standard_normal((K, Dp))
        out = condition_features(S, alpha, graphs, nodes, Z)
        assert np.allclose(out, S @ nodes.matrix @ Z, atol=1e-9)

    def test_matches_loop_oracle(self, rng):
        C, K, Dp, Ng, Nr = 4, 5, 5, 2, 3
        S = rng.standard_normal((Nr, C))
        alpha = rng.uniform(0, 1, size=(Nr, Ng))
        edges = [rng.uniform(0, 1, size=(C, C)) for _ in range(Ng)]
        graphs = make_graphs(edges, C)
        nodes = NodeFeatures(rng.standard_normal((C, K)))
        Z = rng.standard_normal((K, Dp))
        out = condition_features(S, alpha, graphs, nodes, Z)
        assert out.shape == (Nr, Dp)
        assert np.allclose(out, loop_oracle(S, alpha, edges, nodes.matrix, Z),
                           atol=1e-9)

    def test_zero_embed_annihilates(self, rng):
        C = 3
        graphs = make_graphs([np.eye(C)], C)
        S = np.ones((2, C)) / C
        alpha = np.ones((2, 1))
        nodes = NodeFeatures(rng.standard_normal((C, 4)))
        out = condition_features(S, alpha, graphs, nodes, np.zeros((4, 6)))
        assert np.array_equal(out, np.zeros((2, 6)))

    def test_linear_in_mapping(self, rng):
        C, K, Dp, Ng, Nr = 5, 6, 4, 3, 4
        edges = [rng.uniform(0, 1, size=(C, C)) for _ in range(Ng)]
        graphs = make_graphs(edges, C)
        alpha = rng.uniform(0, 1, size=(Nr, Ng))
        nodes = NodeFeatures(rng.standard_normal((C, K)))
        Z = rng.standard_normal((K, Dp))
        S1 = rng.standard_normal((Nr, C))
        S2 = rng.standard_normal((Nr, C))
        a, b = 2.5, -1.25
        lhs = condition_features(a * S1 + b * S2, alpha, graphs, nodes, Z)
        rhs = (a * condition_features(S1, alpha, graphs, nodes, Z)
               + b * condition_features(S2, alpha, graphs, nodes, Z))
        assert np.allclose(lhs, rhs, atol=1e-9)

    def test_proposal_permutation_equivariance(self, rng):
        C, K, Dp, Ng, Nr = 4, 3, 5, 2, 6
        edges = [rng.uniform(0, 1, size=(C, C)) for _ in range(Ng)]
        graphs = make_graphs(edges, C)
        S = rng.standard_normal((Nr, C))
        alpha = rng.uniform(0, 1, size=(Nr, Ng))
        nodes = NodeFeatures(rng.standard_normal((C, K)))
        Z = rng.standard_normal((K, Dp))
        perm = rng.permutation(Nr)
        out = condition_features(S, alpha, graphs, nodes, Z)
        out_p = condition_features(S[perm], alpha[perm], graphs, nodes, Z)
        assert np.allclose(out_p, out[perm], atol=1e-12)

    def test_single_graph_exact(self, rng):
        C, K, Dp = 3, 4, 5
        E = rng.uniform(0, 1, size=(C, C))
        graphs = make_graphs([E], C)
        S = rng.standard_normal((4, C))
        nodes = NodeFeatures(rng.standard_normal((C, K)))
        Z = rng.standard_normal((K, Dp))
        out = condition_features(S, np.ones((4, 1)), graphs, nodes, Z)
        assert np.allclose(out, S @ E @ nodes.matrix @ Z, atol=1e-12)

    def test_shape_error_names_product(self, rng):
        graphs = make_graphs([np.eye(3)], 3)
        nodes = NodeFeatures(rng.standard_normal((3, 4)))
        with pytest.raises(ShapeError, match="embed"):
            condition_features(np.zeros((2, 3)), np.ones((2, 1)), graphs,
                               nodes, np.zeros((5, 6)))


    def test_mapping_columns_must_match_classes(self, rng):
        graphs = make_graphs([np.eye(3)], 3)
        nodes = NodeFeatures(rng.standard_normal((3, 4)))
        with pytest.raises(ShapeError, match=r"mapping S \(2, 4\)"):
            condition_features(np.zeros((2, 4)), np.ones((2, 1)), graphs,
                               nodes, np.zeros((4, 6)))

    def test_alpha_must_match_proposals_and_graphs(self, rng):
        graphs = make_graphs([np.eye(3), np.eye(3)], 3)
        nodes = NodeFeatures(rng.standard_normal((3, 4)))
        for alpha in (np.ones((2, 1)), np.ones((3, 2))):
            with pytest.raises(ShapeError, match="alpha"):
                condition_features(np.zeros((2, 3)), alpha, graphs, nodes,
                                   np.zeros((4, 6)))


class TestNodeFeatures:
    @pytest.mark.parametrize("matrix", [np.ones(2), np.ones((2, 2, 2)), 1.0])
    def test_not_2d(self, matrix):
        with pytest.raises(ShapeError, match="node features must be a 2-D"):
            NodeFeatures(matrix)

    def test_projection_kept(self, rng):
        nodes = NodeFeatures(rng.standard_normal((3, 4)))
        Z = rng.standard_normal((4, 5))
        WZ = nodes.project(Z)
        assert np.array_equal(WZ, nodes.matrix @ Z)
        assert nodes.project(Z.copy()) is WZ
        with pytest.raises(ValueError, match="read-only"):
            WZ[0, 0] = 1.0

    def test_matrix_is_private_copy(self, rng):
        """W is copied and read-only; the caller's array stays writeable,
        and an edit to it leaves the kept W Z in use."""
        W, Z = rng.standard_normal((3, 4)), rng.standard_normal((4, 5))
        nodes = NodeFeatures(W)
        assert not np.shares_memory(nodes.matrix, W)
        assert not nodes.matrix.flags.writeable and W.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            nodes.matrix[0, 0] = 1.0
        WZ = nodes.project(Z)
        want = WZ.tobytes()
        W[0, 0] += 1.0
        assert nodes.project(Z) is WZ and WZ.tobytes() == want

    def test_memo_outside_equality_and_repr(self, rng):
        W = rng.standard_normal((2, 3))
        nodes, fresh = NodeFeatures(W), NodeFeatures(W)
        before = repr(nodes)
        nodes.project(np.ones((3, 4)))
        assert repr(nodes) == before == repr(fresh)
        assert [f.name for f in dataclasses.fields(nodes)] == ["matrix"]

    def test_equality_on_matrix(self, rng):
        W = rng.standard_normal((2, 3))
        nodes = NodeFeatures(W)
        nodes.project(np.ones((3, 4)))  # the memo is not compared
        assert nodes == NodeFeatures(W.copy())
        changed = W.copy()
        changed[1, 2] += 1.0
        assert nodes != NodeFeatures(changed)
        assert nodes != NodeFeatures(W[:, :2])


# Changes made to W and Z between conditionings through one NodeFeatures.
MEMO_STEPS = ("mutate Z", "fresh equal Z", "flip a zero's sign", "insert NaN",
              "reshape Z", "mutate W's source")


def _flip_bits(a, i, mask):
    """XOR the float64 at flat index i of a C-contiguous array with mask."""
    a.reshape(-1).view(np.uint64)[i] ^= np.uint64(mask)


def test_memo_refuses_broadcastable_shapes(rng):
    """An equal-valued Z whose shape broadcasts against the kept one does
    not hold the same bytes, and `project` recomputes W Z for it."""
    W = rng.standard_normal((3, 4))
    Z = np.full((4, 6), 0.5)
    column, row = np.full((4, 1), 0.5), np.full((1, 6), 0.5)
    for other in (column, row):
        assert not same_bits(Z, other) and not same_bits(other, Z)
    # A column fits W: the second call's W Z is its own, in either order.
    for first, second in ((Z, column), (column, Z)):
        nodes = NodeFeatures(W)
        kept = nodes.project(first)
        WZ = nodes.project(second)
        assert WZ is not kept and WZ.tobytes() == (W @ second).tobytes()
    # A row does not fit W: it is refused, not served the kept W Z.
    nodes = NodeFeatures(W)
    nodes.project(Z)
    with pytest.raises(ShapeError, match="cannot multiply"):
        nodes.project(row)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(st.data())
def test_projection_memo_matches_pooled_oracle(data):
    """A run of conditionings through one NodeFeatures: every output equals
    the oracle, and the kept W Z is reused exactly when Z holds the bytes
    of the previous call. W is a private copy: edits to the array it was
    built from leave it, and the kept W Z, as they were."""
    C, K, Dp = (data.draw(st.integers(1, hi)) for hi in (6, 8, 8))
    rng = np.random.Generator(np.random.PCG64(
        data.draw(st.integers(0, 2**32 - 1))))
    n_g = data.draw(st.integers(1, 4))
    edges = rng.uniform(0, 1, (n_g, C, C))
    graphs = make_graphs(edges, C)
    source = rng.standard_normal((C, K))
    nodes = NodeFeatures(source)
    assert not np.shares_memory(nodes.matrix, source)
    kept_W = source.tobytes()
    Z = rng.standard_normal((K, Dp))
    last = None  # the shape and bytes of Z at the previous call, and its W Z

    def call():
        nonlocal last
        N = data.draw(st.integers(0, 7))
        S = soft_mapping(rng.standard_normal((N, C)), MappingPolicy.SOFT)
        alpha = rng.uniform(0, 1, (N, n_g))
        out = condition_features(S, alpha, graphs, nodes, Z)
        want = pooled_loop_oracle(S, alpha, edges, nodes.matrix, Z)
        assert np.array_equal(out, want, equal_nan=True)
        WZ = nodes.project(Z)
        # Bit for bit, so signed zeros and NaN payloads count.
        assert WZ.tobytes() == (nodes.matrix @ Z).tobytes()
        assert nodes.matrix.tobytes() == kept_W
        key = (Z.shape, Z.tobytes())
        if last is not None:
            assert (WZ is last[1]) == (key == last[0])
        last = key, WZ

    call()
    for step in data.draw(st.lists(st.sampled_from(MEMO_STEPS), max_size=8)):
        i = data.draw(st.integers(0, Z.size - 1))
        if step == "mutate Z":
            _flip_bits(Z, i, data.draw(st.integers(1, 2**52 - 1)))
        elif step == "fresh equal Z":
            Z = Z.copy()
        elif step == "flip a zero's sign":
            Z.flat[i] = 0.0
            call()
            Z.flat[i] = -0.0
        elif step == "insert NaN":
            sign, payload = data.draw(st.integers(0, 1)), data.draw(
                st.integers(0, 2**51 - 1))
            Z.reshape(-1).view(np.uint64)[i] = np.uint64(
                sign << 63 | 0x7FF8 << 48 | payload)
        elif step == "reshape Z":
            wider = np.hstack([Z, rng.standard_normal((K, 8))])
            Z = np.ascontiguousarray(wider[:, :data.draw(st.integers(1, 8))])
        else:  # Z is unchanged, so the next call hits the memo
            _flip_bits(source, data.draw(st.integers(0, source.size - 1)),
                       data.draw(st.integers(1, 2**52 - 1)))
        call()


class TestConcat:
    def test_single_row(self):
        out = concat_features(np.array([[1.0, 2.0]]), np.array([[3.0, 4.0, 5.0]]))
        assert out.tolist() == [[1, 2, 3, 4, 5]]

    def test_empty_prime(self):
        f = np.ones((3, 2))
        assert np.array_equal(concat_features(f, np.zeros((3, 0))), f)

    def test_default_dims(self):
        # paper-default conditioned width of 512
        out = concat_features(np.zeros((4, 8)), np.zeros((4, 512)))
        assert out.shape == (4, 520)

    def test_row_mismatch(self):
        with pytest.raises(ShapeError):
            concat_features(np.zeros((2, 2)), np.zeros((3, 2)))


@st.composite
def proposal_batches(draw):
    """Proposal batches of finite float64 logits, boxes and height given
    as floats or ints, with features or without."""
    n = draw(st.integers(0, 5))
    coord = st.floats(-1e6, 1e6) | st.integers(-10 ** 6, 10 ** 6)
    boxes = np.reshape([(min(x), min(y), max(x), max(y)) for x, y in draw(
        st.lists(st.tuples(st.tuples(coord, coord), st.tuples(coord, coord)),
                 min_size=n, max_size=n))], (-1, 4))
    rows = st.just(n)
    features = draw(st.none() | finite_matrices(rows))
    return ProposalBatch(boxes, draw(finite_matrices(rows)),
                         draw(st.floats(5e-324, 1e308)
                              | st.integers(1, 10 ** 6)), features)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(proposal_batches())
def test_proposal_rewrite_keeps_bytes(batch):
    assert_rewrite_stable(save_proposals, load_proposals, batch)


class TestProposalIO:
    def test_round_trip(self, tmp_path, rng):
        batch = ProposalBatch(
            [(0, 0, 10, 10), (5, 5, 20, 30)],
            rng.standard_normal((2, 4)),
            200.0,
            rng.standard_normal((2, 8)),
        )
        p = tmp_path / "props.json"
        save_proposals(batch, p)
        again = load_proposals(p)
        assert again.boxes == batch.boxes
        assert np.array_equal(again.logits, batch.logits)
        assert np.array_equal(again.features, batch.features)
        assert again.layout_height == 200.0

    def test_loaded_batch_equals_saved(self, tmp_path, rng):
        batch = ProposalBatch([(0, 0, 10, 10), (5, 5, 20, 30)],
                              rng.standard_normal((2, 4)), 200.0,
                              rng.standard_normal((2, 8)))
        save_proposals(batch, tmp_path / "props.json")
        assert load_proposals(tmp_path / "props.json") == batch
        logits, features = batch.logits.copy(), batch.features.copy()
        logits[0, 1] += 1.0
        features[1, 7] += 1.0
        for changed in (dict(logits=logits), dict(features=features),
                        dict(features=None), dict(layout_height=100.0)):
            assert dataclasses.replace(batch, **changed) != batch

    @pytest.mark.parametrize("logits, features", [
        ([[math.nan, 1.0]], None), ([[1.0, -math.inf]], None),
        ([[0.0]], [[math.inf]]), ([[0.0]], [[0.0, math.nan]])])
    def test_non_finite_not_written(self, tmp_path, logits, features):
        """Logits or features that load_proposals would reject are refused
        before the file is opened."""
        batch = ProposalBatch([(0, 0, 1, 1)], logits, 10.0, features)
        p = tmp_path / "props.json"
        with pytest.raises(ParseError) as e:
            save_proposals(batch, p)
        assert str(e.value) == (f"{p}: not written: MTX-JSON entries must "
                                "be finite")
        assert not p.exists()

    def test_obj_round_trip_without_features(self):
        batch = ProposalBatch([(0, 0, 1, 1)], np.zeros((1, 2)), 10.0)
        again = proposals_from_obj(proposals_to_obj(batch))
        assert again.features is None

    @pytest.mark.parametrize("change, message", [
        (dict(height="100"), "height must be a JSON number, got '100'"),
        (dict(boxes=[["0", "0", "1", "1"]]),
         "box coordinate must be a JSON number, got '0'"),
        (dict(boxes=[[0, 0, 1, " 1 "]]),
         "box coordinate must be a JSON number, got ' 1 '"),
        (dict(boxes=[[0, 0, 1]]), "bbox must hold 4 numbers, got 3"),
        (dict(logits={"rows": 1, "cols": 2, "data": ["1.5", 0]}),
         "bad MTX-JSON data: entry must be a JSON number, got '1.5'"),
        (dict(features={"rows": 1, "cols": 1, "data": ["2"]}),
         "bad MTX-JSON data: entry must be a JSON number, got '2'"),
    ])
    def test_numeric_strings_rejected(self, change, message):
        obj = proposals_to_obj(ProposalBatch([(0, 0, 1, 1)],
                                             np.zeros((1, 2)), 10.0))
        with pytest.raises(ParseError) as e:
            proposals_from_obj({**obj, **change})
        assert message in str(e.value)

    def test_bools_accepted(self):
        batch = proposals_from_obj({
            "height": True, "boxes": [[False, False, True, True]],
            "logits": {"rows": 1, "cols": 1, "data": [True]}})
        assert batch.boxes == (BBox(0.0, 0.0, 1.0, 1.0),)
        assert batch.layout_height == 1.0 and batch.logits.tolist() == [[1.0]]

    def test_seeded_generators_deterministic(self):
        a = random_node_features(3, 4, seed=9).matrix
        b = random_node_features(3, 4, seed=9).matrix
        assert np.array_equal(a, b)
        assert random_embed(4, 6, seed=1).shape == (4, 6)
