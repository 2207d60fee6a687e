"""Seeded streams: the batched derivation in _StreamFamily against numpy's
SeedSequence and against _child_rng, stream by stream and end to end."""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from coordline import codebooks
from coordline.cli import Experiment
from coordline.codebooks import (
    STREAM_BLOCK_ROWS,
    IndexSpace,
    _child_rng,
    _entropy_words,
    _seed_states,
    _StreamFamily,
    build_codebooks,
    m_minus,
    m_plus,
)
from coordline.codec import allied_generate, run_scheme
from coordline.linestruct import aux_from_tags, make_network
from coordline.presets import preset_config
from coordline.rates import CodebookRates

SEEDS = st.one_of(
    st.sampled_from([0, 1, -1, -(2 ** 40), 2 ** 32, 2 ** 32 + 5, 2 ** 64, 2 ** 64 + 17, 2 ** 70 + 3]),
    st.integers(-(2 ** 80), 2 ** 80),
)
KEY_PARTS = st.one_of(
    st.integers(0, 9),
    st.integers(-(2 ** 40), 2 ** 40),
    st.sampled_from(["", "trial", "x" * 70]),
    st.text(max_size=40),
)
KEYS = st.lists(KEY_PARTS, max_size=5).map(tuple)


def _list_entropy(seed, *key) -> list:
    """The entropy as the Python-int list SeedSequence used to be given."""
    flat = [seed & 0xFFFFFFFFFFFFFFFF]
    for part in key:
        if isinstance(part, str):
            flat.extend(ord(ch) for ch in part)
        else:
            flat.append(int(part) & 0xFFFFFFFF)
    return flat


def _same_stream(a: np.random.Generator, b: np.random.Generator) -> None:
    assert a.bit_generator.state == b.bit_generator.state
    assert a.random() == b.random()
    assert a.integers(0, 2 ** 40) == b.integers(0, 2 ** 40)
    assert a.integers(1, 7) == b.integers(1, 7)


class TestSeedStates:
    @settings(max_examples=150, deadline=None)
    @given(seed=SEEDS, key=KEYS)
    def test_matches_seed_sequence(self, seed, key):
        words = _entropy_words(seed, *key)
        expected = np.random.SeedSequence(words).generate_state(4, np.uint64)
        assert words.dtype == np.uint32
        assert np.array_equal(_seed_states(words[None, :])[0], expected)
        # the uint32 words coerce exactly like the Python-int list did
        legacy = np.random.SeedSequence(_list_entropy(seed, *key)).generate_state(4, np.uint64)
        assert np.array_equal(expected, legacy)

    def test_rows_are_independent(self):
        rows = np.stack([_entropy_words(7, "trial", t, "x1") for t in range(40)])
        states = _seed_states(rows)
        for t in range(40):
            expected = np.random.SeedSequence(rows[t]).generate_state(4, np.uint64)
            assert np.array_equal(states[t], expected)

    def test_seed_words(self):
        assert _entropy_words(0).tolist() == [0]
        assert _entropy_words(2 ** 32 + 5).tolist() == [5, 1]
        assert _entropy_words(-1).tolist() == [0xFFFFFFFF, 0xFFFFFFFF]
        assert _entropy_words(2 ** 64 + 3, "ab", 2 ** 32 + 9).tolist() == [3, 97, 98, 9]


class TestStreamFamily:
    @settings(max_examples=40, deadline=None)
    @given(seed=SEEDS, head=KEYS, tail=KEYS, data=st.data())
    def test_matches_child_rng(self, seed, head, tail, data):
        rows = data.draw(st.integers(1, 3 * STREAM_BLOCK_ROWS + 7), label="rows")
        boundary = [r for r in (0, STREAM_BLOCK_ROWS - 1, STREAM_BLOCK_ROWS, rows - 1) if r < rows]
        picked = data.draw(st.lists(st.integers(0, rows - 1), max_size=6), label="picked")
        family = _StreamFamily(seed, head, tail, rows)
        for row in boundary + picked + boundary[::-1]:
            _same_stream(family.rng(row), _child_rng(seed, *head, row, *tail))

    @settings(max_examples=25, deadline=None)
    @given(seed=SEEDS, head=KEYS, tail=KEYS,
           rows=st.sampled_from([STREAM_BLOCK_ROWS, STREAM_BLOCK_ROWS + 1, 529, 600, 2 * STREAM_BLOCK_ROWS])
           | st.integers(STREAM_BLOCK_ROWS + 1, 4 * STREAM_BLOCK_ROWS), data=st.data())
    def test_block_crossing_row_counts_match_child_rng(self, seed, head, tail, rows, data):
        boundary = [0, STREAM_BLOCK_ROWS - 1, *range(STREAM_BLOCK_ROWS, rows, STREAM_BLOCK_ROWS), rows - 1]
        picked = data.draw(st.lists(st.integers(0, rows - 1), max_size=6), label="picked")
        family = _StreamFamily(seed, head, tail, rows)
        for row in boundary + picked + boundary[::-1]:
            _same_stream(family.rng(row), _child_rng(seed, *head, row, *tail))

    @settings(max_examples=25, deadline=None)
    @given(seed=SEEDS, head=KEYS, tail=KEYS, shape=st.sampled_from([(3, 200), (23, 23), (2, 5, 60)])
           | st.lists(st.integers(1, 40), min_size=2, max_size=2).map(tuple), data=st.data())
    def test_multi_index_matches_child_rng(self, seed, head, tail, shape, data):
        # a book's parent space flattens a multi-index to the row of its stream
        parents = IndexSpace([(("m", axis), size) for axis, size in enumerate(shape)])
        rows = parents.size
        boundary = [r for r in (0, STREAM_BLOCK_ROWS - 1, STREAM_BLOCK_ROWS, rows - 1) if r < rows]
        picked = data.draw(st.lists(st.integers(0, rows - 1), max_size=6), label="picked")
        family = _StreamFamily(seed, head, tail, rows)
        for row in boundary + picked + boundary[::-1]:
            index = map(int, np.unravel_index(row, shape))
            flat = parents.flatten({("m", axis): v for axis, v in enumerate(index)})
            assert flat == row
            _same_stream(family.rng(flat), _child_rng(seed, *head, row, *tail))

    def test_empty_shape_is_one_stream(self):
        # a book with no parent components is drawn from one stream, at row 0
        parents = IndexSpace([])
        assert parents.size == 1 and parents.flatten({}) == 0
        _same_stream(_StreamFamily(9, ("B",), (), parents.size).rng(0), _child_rng(9, "B", 0))

    def test_held_states_do_not_grow_with_rows(self):
        family = _StreamFamily(3, ("trial",), ("cr",), 10 * STREAM_BLOCK_ROWS)
        for row in range(0, 10 * STREAM_BLOCK_ROWS, 97):
            family.rng(row)
            assert family._states.shape == (STREAM_BLOCK_ROWS, 4)
            assert family._states.dtype == np.uint64


def _dsbs(n: int, seed: int = 1):
    exp = Experiment(preset_config("dsbs"))
    return exp, build_codebooks(exp.spec, exp.rates, n, seed)


class TestTrialLoop:
    """Trials run in blocks of STREAM_BLOCK_ROWS, each block drawing once per key from
    the stream (seed, "mc", block, *key): a run's traces are the first traces of a
    longer run, across the block boundary."""

    TRIALS = STREAM_BLOCK_ROWS + 10

    def _assert_prefix(self, run):
        short = [t.to_dict() for t in run(self.TRIALS).traces]
        longer = [t.to_dict() for t in run(self.TRIALS + STREAM_BLOCK_ROWS + 40).traces]
        assert short == longer[:self.TRIALS]

    def test_run_scheme(self):
        exp, cb = _dsbs(1)
        self._assert_prefix(lambda trials: run_scheme(cb, exp.mode, trials, exp.seed))

    def test_allied_and_copy3_books(self):
        exp = Experiment(preset_config("copy3"))
        cb = build_codebooks(exp.spec, exp.rates, 2, 5)
        self._assert_prefix(lambda trials: allied_generate(cb, trials, exp.seed))

    def test_seed_sequences_do_not_scale_with_trials(self, monkeypatch):
        exp, cb = _dsbs(2)
        real = np.random.SeedSequence
        built = []

        def counting(*args, **kwargs):
            built.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(np.random, "SeedSequence", counting)
        counts = []
        for trials in (20, 400):
            built.clear()
            run_scheme(cb, exp.mode, trials, exp.seed)
            counts.append(len(built))
        assert counts[0] == counts[1] > 0


class TestChainStreams:
    """The line's nested books, level by level: each parent row of a book draws its
    codewords from the stream (seed, *key, row), however many parents the book has."""

    @staticmethod
    def _wide_books(rate: float, n: int = 5, seed: int = 11):
        # A constant and C2 = X2 uniform, so C2's codewords are random under every parent
        spec = aux_from_tags(make_network(2, np.full((2, 2), 0.25)))
        rates = CodebookRates.for_network(2, mu_plus={(1, 2): rate}, mu_minus={(1, 2): rate},
                                          lam={2: 0.4})
        return build_codebooks(spec, rates, n, seed)

    def test_levels_match_per_prefix_streams(self, monkeypatch):
        # C2's parents are every (m+, m-) pair: 32 * 32 = 1024, so its draw crosses a block
        cb = self._wide_books(1.0)
        assert cb.sizes[m_plus((1, 2))] * cb.sizes[m_minus((1, 2))] > STREAM_BLOCK_ROWS
        assert cb.c[2].parents.size > STREAM_BLOCK_ROWS
        words = cb.c[2].words
        assert not np.array_equal(words[:STREAM_BLOCK_ROWS], words[STREAM_BLOCK_ROWS:])

        class PerPrefix:
            def __init__(self, seed, head, tail, rows):
                self.key = (seed, head, tail)

            def rng(self, row):
                seed, head, tail = self.key
                return _child_rng(seed, *head, row, *tail)

        monkeypatch.setattr(codebooks, "_StreamFamily", PerPrefix)
        ref = build_codebooks(cb.spec, cb.rates, cb.n, cb.seed)
        for level in ("a", "b", "c"):
            for key, book in getattr(cb, level).items():
                assert np.array_equal(book.words, getattr(ref, level)[key].words)

    def test_seed_sequences_do_not_scale_with_sizes(self, monkeypatch):
        real = np.random.SeedSequence
        built = []

        def counting(*args, **kwargs):
            built.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(np.random, "SeedSequence", counting)
        counts = []
        for rate in (0.4, 1.0):
            built.clear()
            cb = self._wide_books(rate)
            counts.append((cb.c[2].parents.size, len(built)))
        assert [parents for parents, _ in counts] == [16, 1024]
        assert counts[0][1] == counts[1][1] > 0
