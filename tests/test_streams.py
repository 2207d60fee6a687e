"""Seeded streams: the batched derivation in _StreamFamily against numpy's
SeedSequence and against _child_rng, stream by stream and end to end."""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from coordline.cli import Experiment
from coordline.codebooks import (
    STREAM_BLOCK_ROWS,
    _child_rng,
    _entropy_words,
    _seed_states,
    _StreamFamily,
    build_chain,
    build_codebooks,
)
from coordline.codec import allied_generate, run_scheme
from coordline.presets import preset_config
from coordline.probability import condition, marginalize, pmf_from_table

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
        family = _StreamFamily(seed, head, tail, (rows,))
        for row in boundary + picked + boundary[::-1]:
            _same_stream(family.rng(row), _child_rng(seed, *head, row, *tail))

    @settings(max_examples=25, deadline=None)
    @given(seed=SEEDS, head=KEYS, tail=KEYS, shape=st.sampled_from([(3, 200), (23, 23), (2, 5, 60)])
           | st.lists(st.integers(1, 40), min_size=2, max_size=2).map(tuple), data=st.data())
    def test_multi_index_matches_child_rng(self, seed, head, tail, shape, data):
        rows = int(np.prod(shape))
        boundary = [r for r in (0, STREAM_BLOCK_ROWS - 1, STREAM_BLOCK_ROWS, rows - 1) if r < rows]
        picked = data.draw(st.lists(st.integers(0, rows - 1), max_size=6), label="picked")
        family = _StreamFamily(seed, head, tail, shape)
        for row in boundary + picked + boundary[::-1]:
            index = map(int, np.unravel_index(row, shape))
            _same_stream(family.rng(row), _child_rng(seed, *head, *index, *tail))

    def test_empty_shape_is_one_stream(self):
        _same_stream(_StreamFamily(9, ("D", 0), (), ()).rng(0), _child_rng(9, "D", 0))

    def test_held_states_do_not_grow_with_rows(self):
        family = _StreamFamily(3, ("trial",), ("cr",), (10 * STREAM_BLOCK_ROWS,))
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



def _bit_chain(levels: int) -> list:
    """D1 -> ... -> Dk -> Y with skewed noisy copies, so per-letter rows differ."""
    flip = np.array([[0.7, 0.3], [0.1, 0.9]])
    w = np.array([0.4, 0.6])
    for _ in range(levels):
        w = w[..., None] * flip
    return pmf_from_table([f"D{d + 1}" for d in range(levels)] + ["Y"], w)


def _ref_chain_levels(joint, labels, sizes, n, seed) -> list:
    """Chain codewords by level, one _child_rng(seed, "D", level, *prefix) per
    parent prefix, as arrays of shape sizes[:level + 1] + (n,)."""
    books = []
    for lvl, lbl in enumerate(labels):
        given = labels[:lvl]
        kernel = condition(marginalize(joint, given + [lbl]), given) if given else None
        arr = np.empty(tuple(sizes[:lvl + 1]) + (n,), dtype=np.int64)
        for prefix in np.ndindex(*sizes[:lvl]):
            if given:
                letters = [books[d][prefix[:d + 1]] for d in range(lvl)]
                rows = kernel.weights[tuple(letters)]
            else:
                rows = np.tile(marginalize(joint, [lbl]).weights, (n, 1))
            u = _child_rng(seed, "D", lvl, *prefix).random((sizes[lvl], n))
            cum = np.cumsum(rows, axis=-1)
            cum[:, -1] = 1.0
            sym = np.stack([np.searchsorted(cum[t], u[:, t], side="right") for t in range(n)], axis=1)
            arr[prefix] = np.minimum(sym, cum.shape[1] - 1)
        books.append(arr)
    return books


class TestChainStreams:
    def test_levels_match_per_prefix_streams(self):
        # level 2 has 24 * 24 = 576 parents, so its draw crosses a stream block
        joint = _bit_chain(3)
        chain = build_chain(joint, ["D1", "D2", "D3"], "Y", (1.0, 1.0, 0.2), n=5, seed=11)
        assert chain.sizes[0] * chain.sizes[1] > STREAM_BLOCK_ROWS
        ref = _ref_chain_levels(joint, ["D1", "D2", "D3"], chain.sizes, 5, 11)
        for lvl, book in enumerate(chain.levels):
            assert np.array_equal(book.words.reshape(ref[lvl].shape), ref[lvl])

    def test_seed_sequences_do_not_scale_with_sizes(self, monkeypatch):
        joint = _bit_chain(2)
        real = np.random.SeedSequence
        built = []

        def counting(*args, **kwargs):
            built.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(np.random, "SeedSequence", counting)
        counts = []
        for rate in (0.5, 1.0):
            built.clear()
            chain = build_chain(joint, ["D1", "D2"], "Y", (rate, rate), n=4, seed=3)
            counts.append((chain.sizes, len(built)))
        assert [sizes for sizes, _ in counts] == [(4, 4), (16, 16)]
        assert counts[0][1] == counts[1][1] > 0
