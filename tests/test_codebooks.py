import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import stats

from coordline import codebooks
from coordline.codebooks import (
    STREAM_BLOCK_ROWS,
    Book,
    IndexSpace,
    _entropy_words,
    _seed_states,
    _stratified_blocks,
    _stratified_quantiles,
    build_codebooks,
    codeword_count,
    component_sizes,
    k_minus,
    k_plus,
    l_of,
    m_minus,
    m_plus,
)
from coordline.cli import Experiment
from coordline.codec import run_scheme
from coordline.errors import ResourceCapError, UsageError
from coordline.linestruct import CONSTANT, aux_from_tags, channel_of, copy_of, make_network, x_label
from coordline.presets import preset_config
from coordline.rates import CodebookRates


def dsbs_network(p=0.25):
    w = [[(1 - p) / 2, p / 2], [p / 2, (1 - p) / 2]]
    return make_network(2, w)


def dsbs_spec(p=0.25):
    return aux_from_tags(dsbs_network(p), a_tags={(1, 2): copy_of("X2")})


def h2_rates(mu_p=0.5, mu_m=0.5, lam2=0.0):
    return CodebookRates.for_network(2, mu_plus={(1, 2): mu_p}, mu_minus={(1, 2): mu_m},
                                     lam={2: lam2})


def same_books(cb1, cb2) -> bool:
    """Whether two codebooks have the same component sizes and, book by book, the same
    parent and slot components and the same words array (values, shape and dtype)."""
    return cb1.sizes == cb2.sizes and all(
        f1.keys() == f2.keys() and all(
            f1[k].parents.components == f2[k].parents.components
            and f1[k].slots.components == f2[k].slots.components
            and f1[k].words.dtype == f2[k].words.dtype and np.array_equal(f1[k].words, f2[k].words)
            for k in f1)
        for f1, f2 in ((cb1.a, cb2.a), (cb1.b, cb2.b), (cb1.c, cb2.c)))


def h3_chain_spec(p=0.25):
    flip = np.array([[1 - p, p], [p, 1 - p]])
    w = np.einsum("a,ab,bc->abc", [0.5, 0.5], flip, flip)
    net = make_network(3, w)
    return aux_from_tags(net, a_tags={(1, 2): copy_of("X2"), (1, 3): copy_of("X3"),
                                      (2, 3): copy_of("X3")})


def wide_books(rate: float, n: int = 5, seed: int = 11):
    """Books whose A and B are constant and C2 = X2 uniform, so C2's codewords are random
    under every parent: at rate 1.0 its parents are every (m+, m-) pair, 32 * 32 = 1024,
    and its draw crosses a stream block."""
    spec = aux_from_tags(make_network(2, np.full((2, 2), 0.25)))
    rates = CodebookRates.for_network(2, mu_plus={(1, 2): rate}, mu_minus={(1, 2): rate},
                                      lam={2: 0.4})
    return build_codebooks(spec, rates, n, seed)


def every_row_draw_book(seed, key, parents, slots, kernel, n, given):
    """_draw_book with no fixed rows: every parent row, whatever its law, decodes the
    stratified quantiles of its own stream (seed, *key, row). Fixed rows' words must equal
    what their streams decode to."""
    n_out = kernel.weights.shape[-1]
    count = slots.size
    words = np.empty((parents.size, count, n), dtype=np.int64)
    for start in range(0, parents.size, STREAM_BLOCK_ROWS):
        block = np.arange(start, min(start + STREAM_BLOCK_ROWS, parents.size))
        entropy = np.tile(_entropy_words(seed, *key, 0), (len(block), 1))
        entropy[:, -1] = block
        letters = given(parents.unflatten(block))
        rows = kernel.weights[tuple(letters)] if letters else np.tile(kernel.weights, (n, 1))
        words[block] = _stratified_blocks(
            _stratified_quantiles(_seed_states(entropy), count),
            np.broadcast_to(rows.reshape(-1, n, n_out), (len(block), n, n_out)))
    words.setflags(write=False)
    return Book(parents, slots, words)


@pytest.fixture
def drawn_rows(monkeypatch):
    """The row count of every _seed_states pass build_codebooks makes, in order."""
    passes = []
    original = codebooks._seed_states

    def spy(entropy):
        passes.append(len(entropy))
        return original(entropy)

    monkeypatch.setattr(codebooks, "_seed_states", spy)
    return passes


class TestSizes:
    def test_ceil_rule(self):
        assert codeword_count(3, 1.0) == 8
        assert codeword_count(4, 0.3) == math.ceil(2 ** 1.2)
        assert codeword_count(5, 0.0) == 1

    def test_snap_guard(self):
        # n*rate arithmetic that lands a hair above an integer must not bump up
        assert codeword_count(3, 0.2 + 0.2 + 0.2 + 0.2 + 0.2) == 8

    def test_counts_stay_below_2_to_the_63(self):
        assert codeword_count(62, 1.0) == 2 ** 62
        assert codeword_count(2, 31.49) == math.ceil(2 ** 62.98)
        for n, rate in ((63, 1.0), (2, 31.5), (1, 62.9999999999), (130, 0.5)):
            with pytest.raises(ResourceCapError, match="above any cap"):
                codeword_count(n, rate)

    @pytest.mark.parametrize("rate", [math.nan, math.inf, -math.inf, -0.5])
    def test_non_finite_or_negative_rate_is_usage_error(self, rate):
        with pytest.raises(UsageError, match="finite and nonnegative"):
            codeword_count(4, rate)


class TestBuildAndLookup:
    def test_constant_alphabet_single_codeword(self):
        net = dsbs_network()
        spec = aux_from_tags(net)  # A constant
        cb = build_codebooks(spec, h2_rates(0.0, 1.0, 1.0), n=3, seed=1)
        w0 = cb.a_codeword((1, 2), {m_plus((1, 2)): 0, m_minus((1, 2)): 0})
        w1 = cb.a_codeword((1, 2), {m_plus((1, 2)): 0, m_minus((1, 2)): 7})
        assert np.array_equal(w0, np.zeros(3))
        assert np.array_equal(w0, w1)

    def test_seed_determinism_and_difference(self):
        spec = dsbs_spec()
        r = h2_rates(0.7, 0.7, 0.4)
        cb1 = build_codebooks(spec, r, n=3, seed=42)
        cb2 = build_codebooks(spec, r, n=3, seed=42)
        cb3 = build_codebooks(spec, r, n=3, seed=43)
        assert same_books(cb1, cb2)
        assert not same_books(cb1, cb3)

    def test_h3_nesting_ignores_foreign_indices(self):
        spec = h3_chain_spec()
        rates = CodebookRates.for_network(
            3, mu_plus={(1, 2): 0.4, (1, 3): 0.4, (2, 3): 0.4},
            mu_minus={(1, 2): 0.4, (1, 3): 0.4, (2, 3): 0.4},
            lam={2: 0.4, 3: 0.4})
        cb = build_codebooks(spec, rates, n=2, seed=5)
        base = {m_plus(p): 0 for p in [(1, 2), (1, 3), (2, 3)]}
        base.update({m_minus(p): 0 for p in [(1, 2), (1, 3), (2, 3)]})
        ref = cb.a_codeword((1, 2), base)
        # A_{1,2} depends only on indices in phibar(1,2) = {(1,2), (1,3)}
        for v in range(cb.sizes[m_plus((2, 3))]):
            probe = dict(base)
            probe[m_plus((2, 3))] = v
            assert np.array_equal(cb.a_codeword((1, 2), probe), ref)
        # ... and changes with its own index (exhaustive check finds a change)
        seen = {tuple(ref)}
        for v in range(1, cb.sizes[m_plus((1, 2))]):
            probe = dict(base)
            probe[m_plus((1, 2))] = v
            seen.add(tuple(cb.a_codeword((1, 2), probe)))
        assert len(seen) > 1

    def test_rate_zero_books_have_one_codeword(self):
        spec = dsbs_spec()
        cb = build_codebooks(spec, h2_rates(0.0, 0.0, 0.0), n=4, seed=9)
        assert cb.sizes[m_plus((1, 2))] == 1
        assert cb.sizes[l_of(2)] == 1

    def test_out_of_range_index(self):
        spec = dsbs_spec()
        cb = build_codebooks(spec, h2_rates(0.5, 0.5), n=2, seed=0)
        with pytest.raises(UsageError):
            cb.a_codeword((1, 2), {m_plus((1, 2)): 99, m_minus((1, 2)): 0})

    def test_cap(self, monkeypatch):
        spec = dsbs_spec()
        monkeypatch.setenv("COORDLINE_CAP", "1000")
        with pytest.raises(ResourceCapError):
            build_codebooks(spec, h2_rates(3.0, 3.0, 3.0), n=10, seed=0)

    def test_positionwise_marginal_matches_kernel(self):
        # chi-square sanity check across seeds on one fixed codeword position
        spec = dsbs_spec()
        r = h2_rates(0.7, 0.0)
        counts = np.zeros(2)
        seeds = 400
        for s in range(seeds):
            cb = build_codebooks(spec, r, n=2, seed=s)
            w = cb.a_codeword((1, 2), {m_plus((1, 2)): 1, m_minus((1, 2)): 0})
            counts[w[0]] += 1
        # A = X2 marginal is uniform
        chi2 = ((counts - seeds / 2) ** 2 / (seeds / 2)).sum()
        assert chi2 < stats.chi2.ppf(0.999, df=1)

    def test_exact_divisor_book_enumerates_blocks(self):
        # uniform conditional with count == |alphabet|^n covers every block once
        net = make_network(2, np.full((2, 2), 0.25))
        spec = aux_from_tags(net)  # C2 = X2 uniform, all else constant
        cb = build_codebooks(spec, h2_rates(0.0, 0.0, 1.0), n=2, seed=3)
        words = {tuple(cb.c_codeword(2, {m_plus((1, 2)): 0, m_minus((1, 2)): 0,
                                         k_plus(1): 0, k_minus(1): 0, l_of(2): l}))
                 for l in range(4)}
        assert words == {(0, 0), (0, 1), (1, 0), (1, 1)}


def _dsbs_books(n: int = 4):
    exp = Experiment(preset_config("dsbs"))
    cb = build_codebooks(exp.spec, exp.rates, n, 1)
    assert cb.sizes[m_plus((1, 2))] == 4 and cb.sizes[l_of(2)] == 2
    return exp, cb


def _probe(**values) -> dict:
    """An index bundle for the dsbs line books, with the given components replaced."""
    probe = {m_plus((1, 2)): 1, m_minus((1, 2)): 0, k_plus(1): 0, k_minus(1): 0, l_of(2): 1}
    names = {"m_plus": m_plus((1, 2)), "m_minus": m_minus((1, 2)), "l": l_of(2)}
    probe.update({names[k]: v for k, v in values.items()})
    return probe


class TestChainIndices:
    """Every index into the line's nested books is range-checked."""

    @pytest.mark.parametrize("call", [
        lambda c: c.a_codeword((1, 2), _probe(m_plus=-1)),
        lambda c: c.a_codeword((1, 2), _probe(m_plus=4)),
        lambda c: c.c_codeword(2, _probe(l=-1)),
        lambda c: c.c_codeword(2, _probe(m_plus=4)),
    ], ids=["codeword-neg", "codeword-end", "codeword-neg-1", "codeword-parent-end"])
    def test_out_of_range_index_is_a_usage_error(self, call):
        with pytest.raises(UsageError, match="out of range"):
            call(_dsbs_books()[1])

    @pytest.mark.parametrize("call", [
        lambda c: c.a_codeword((1, 2), _probe(m_plus=1.0)),
        lambda c: c.c_codeword(2, _probe(l=np.float64(1.0))),
        lambda c: c.c_codeword(2, _probe(m_plus=np.array([0.0, 1.0]), m_minus=np.array([0, 1]))),
    ], ids=["codeword-float", "codeword-float64", "letters-float-array"])
    def test_float_index_is_a_usage_error(self, call):
        with pytest.raises(UsageError, match="is not an integer"):
            call(_dsbs_books()[1])

    def test_in_range_indices_still_work(self):
        exp, cb = _dsbs_books()
        assert cb.c_codeword(2, _probe(m_plus=3, m_minus=9, l=1)).shape == (4,)
        stacked = cb.c_codeword(2, _probe(m_plus=np.array([0, 3]), m_minus=np.array([0, 9])))
        assert stacked.shape == (2, 4)
        run = run_scheme(cb, exp.mode, 2, 0)
        values = run.indices[m_plus((1, 2))]
        assert len(values) == 2 and ((0 <= values) & (values < cb.sizes[m_plus((1, 2))])).all()


@st.composite
def mixed_specs(draw):
    """A random binary line of h = 2 or 3 nodes with zero cells in its target, whose A, B
    and C kernels are each a constant, a copy or a channel of an action. A channel's rows
    are one-hot, uniform or drawn, so the conditionals of one book are deterministic under
    some parents and not under others, and its blocks interleave fixed and free rows.
    Every component has 1, 2 or 4 indices. Returns (spec, rates, n)."""
    h, n = draw(st.integers(2, 3)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    target = rng.integers(0, 4, size=(2,) * h).astype(float)
    assume(target.sum() > 0)
    rows = {"one-hot-0": [1.0, 0.0], "one-hot-1": [0.0, 1.0], "uniform": [0.5, 0.5]}

    def kernel():
        kind = draw(st.sampled_from(["constant", "copy", "channel"]))
        source = x_label(draw(st.integers(1, h)))
        if kind != "channel":
            return CONSTANT if kind == "constant" else copy_of(source)
        picks = [draw(st.sampled_from([*rows, "drawn"])) for _ in range(2)]
        return channel_of([source], [rows.get(p, rng.dirichlet(np.ones(2))) for p in picks], 2)

    pairs = [(i, j) for i in range(1, h) for j in range(i + 1, h + 1)]
    spec = aux_from_tags(make_network(h, target / target.sum()),
                         a_tags={p: kernel() for p in pairs}, b_tags={i: kernel() for i in range(1, h)},
                         c_tags={i: kernel() for i in range(2, h + 1)})
    rate = st.sampled_from([0.0, 1 / n, 2 / n])
    rates = CodebookRates.for_network(
        h, mu_plus={p: draw(rate) for p in pairs}, mu_minus={p: draw(rate) for p in pairs},
        kappa_plus={i: draw(rate) for i in range(1, h)}, kappa_minus={i: draw(rate) for i in range(1, h)},
        lam={i: draw(rate) for i in range(2, h + 1)})
    assume(math.prod(component_sizes(spec, rates, n).values()) <= 1 << 12)
    return spec, rates, n


def _interleaved_block():
    """h=2, A1_2 a channel of X2 that is 1 only when X2 is: C2's 1,024 parents are fixed
    where both letters of their A-word are 1 (about 1 in 16) and free elsewhere, across
    two stream blocks."""
    spec = aux_from_tags(make_network(2, np.full((2, 2), 0.25)),
                         a_tags={(1, 2): channel_of(["X2"], [[1.0, 0.0], [0.5, 0.5]], 2)})
    return spec, CodebookRates.for_network(2, mu_plus={(1, 2): 2.5}, mu_minus={(1, 2): 2.5},
                                           lam={2: 0.5}), 2


class TestFixedRows:
    """A parent row whose per-letter cumulative rows hold only 0.0 and 1.0 decodes every
    quantile to one word, so it draws no stream; every book still equals the one that
    draws every row."""

    NEXT_BELOW_ONE = np.nextafter(1.0, 0.0)

    @staticmethod
    def _one_row_book(weights, letters=()):
        """The book of one parent and 4 slots at n=2 under a kernel of the given weights:
        every letter reads the row `weights` when letters is empty, else letter t reads
        weights[letters[t]]."""
        kernel = SimpleNamespace(weights=np.asarray(weights, dtype=float))
        given = (lambda asg: [np.array([letters])]) if letters else (lambda asg: [])
        return codebooks._draw_book(5, ("T",), IndexSpace([]), IndexSpace([(l_of(2), 4)]),
                                    kernel, 2, given)

    def _decode(self, letter_rows):
        """The words _stratified_blocks decodes at quantiles 0 and just below 1."""
        return _stratified_blocks(np.array([[0.0, self.NEXT_BELOW_ONE]]), np.asarray(letter_rows)[None])[0]

    @pytest.mark.parametrize("row", [[0.0, 1 - 1e-7, 0.0], [1e-17, 1.0]])
    def test_rows_with_an_interior_cumulative_entry_are_free(self, row, drawn_rows):
        self._one_row_book(row)
        assert drawn_rows == [1]
        low, high = self._decode([row, row])
        assert not np.array_equal(low, high)

    @pytest.mark.parametrize("row, word", [([0.0, 1 - 1e-7], 1), ([1 + 2e-16, 0.0], 0),
                                           ([1.0], 0), ([0.3], 0)])
    def test_rows_of_only_0_and_1_cumulative_entries_are_fixed(self, row, word, drawn_rows):
        book = self._one_row_book(row)
        assert drawn_rows == []
        assert np.all(book.words == word) and book.words.shape == (1, 4, 2)
        assert np.all(self._decode([row, row]) == word)

    def test_one_free_letter_frees_the_row(self, drawn_rows):
        self._one_row_book([[1.0, 0.0], [0.0, 1.0]], letters=(0, 1))
        assert drawn_rows == []
        self._one_row_book([[1.0, 0.0], [0.5, 0.5]], letters=(0, 1))
        assert drawn_rows == [1]

    @settings(derandomize=True, deadline=None, max_examples=120)
    @given(case=mixed_specs())
    @example(case=_interleaved_block())
    def test_books_equal_every_row_draws(self, case):
        spec, rates, n = case
        cb = build_codebooks(spec, rates, n, 3)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(codebooks, "_draw_book", every_row_draw_book)
            assert same_books(cb, build_codebooks(spec, rates, n, 3))

    def test_interleaved_block_draws_only_its_free_rows(self, drawn_rows):
        cb = build_codebooks(*_interleaved_block()[:2], 2, 3)
        a_row, *c2_blocks = drawn_rows  # A1_2's one parent, then C2's blocks; B is constant
        assert cb.c[2].parents.size == 2 * STREAM_BLOCK_ROWS and a_row == 1
        assert len(c2_blocks) == 2 and all(0 < rows < STREAM_BLOCK_ROWS for rows in c2_blocks)

    @pytest.mark.parametrize("preset, n, drawn, rows", [("dsbs", 6, 1, 421), ("copy3", 4, 1, 2993),
                                                        ("markov3", 4, 2, 49)])
    def test_preset_books_stream_only_their_free_rows(self, preset, n, drawn, rows, drawn_rows):
        exp = Experiment(preset_config(preset))
        cb = build_codebooks(exp.spec, exp.rates, n, 3)
        assert sum(book.parents.size for family in (cb.a, cb.b, cb.c) for book in family.values()) == rows
        assert sum(drawn_rows) == drawn
