"""Seeded streams: the batched derivation in _StreamFamily against numpy's
SeedSequence and against _child_rng, stream by stream and end to end."""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import coordline.codebooks as codebooks
import coordline.codec as codec
from coordline.cli import Experiment
from coordline.codebooks import (
    STREAM_BLOCK_ROWS,
    _child_rng,
    _entropy_words,
    _seed_states,
    _StreamFamily,
    build_codebooks,
)
from coordline.codec import allied_generate, run_scheme
from coordline.presets import preset_config

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

    def test_held_states_do_not_grow_with_rows(self):
        family = _StreamFamily(3, ("trial",), ("cr",), 10 * STREAM_BLOCK_ROWS)
        for row in range(0, 10 * STREAM_BLOCK_ROWS, 97):
            family.rng(row)
            assert family._states.shape == (STREAM_BLOCK_ROWS, 4)
            assert family._states.dtype == np.uint64


class _PerRowStreams:
    """Reference for _StreamFamily: one _child_rng per request."""

    def __init__(self, seed, head, tail, rows):
        self.seed, self.head, self.tail = seed, head, tail

    def rng(self, row):
        return _child_rng(self.seed, *self.head, row, *self.tail)


def _dsbs(n: int, seed: int = 1):
    exp = Experiment(preset_config("dsbs"))
    return exp, build_codebooks(exp.spec, exp.rates, n, seed)


class TestTrialLoop:
    """The batched trial loop replays the per-trial generators draw for draw,
    across the block boundary."""

    TRIALS = STREAM_BLOCK_ROWS + 40

    def _both(self, monkeypatch, run):
        batched = run()
        monkeypatch.setattr(codec, "_StreamFamily", _PerRowStreams)
        monkeypatch.setattr(codebooks, "_StreamFamily", _PerRowStreams)
        return batched, run()

    def test_run_scheme(self, monkeypatch):
        def run():
            exp, cb = _dsbs(1)
            return cb.to_text(), run_scheme(cb, exp.mode, self.TRIALS, exp.seed).to_dict()

        batched, reference = self._both(monkeypatch, run)
        assert batched == reference

    def test_allied_and_copy3_books(self, monkeypatch):
        def run():
            exp = Experiment(preset_config("copy3"))
            cb = build_codebooks(exp.spec, exp.rates, 2, 5)
            return cb.to_text(), allied_generate(cb, self.TRIALS, exp.seed).to_dict()

        batched, reference = self._both(monkeypatch, run)
        assert batched == reference

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

