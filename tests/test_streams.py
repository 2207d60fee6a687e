"""Seeded streams: the array derivation of a book's per-row streams (SeedSequence's
hashing, PCG64's outputs and Generator.permutation's and random's algorithms) against
numpy itself, row by row and through build_codebooks, and Monte Carlo's stream blocks."""
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coordline import codebooks
from coordline.cli import Experiment
from coordline.codebooks import (
    STREAM_BLOCK_ROWS,
    _child_rng,
    _entropy_words,
    _halves,
    _pcg64_outputs,
    _seed_states,
    _shuffle,
    _stratified_quantiles,
    build_codebooks,
    m_minus,
    m_plus,
)
from coordline.codec import run_scheme
from coordline.presets import preset_config
from test_codebooks import same_books, wide_books
from test_exact_batched import ref_draw_book

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


def _row_states(seed, key, rows) -> np.ndarray:
    """The generate_state words of the streams (seed, *key, row) for rows 0..rows-1."""
    return _seed_states(np.stack([_entropy_words(seed, *key, row) for row in range(rows)]))


def _generator_quantiles(seed, key, row, count) -> np.ndarray:
    rng = _child_rng(seed, *key, row)
    return (rng.permutation(count) + rng.random(count)) / count


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


class TestPcg64Outputs:
    @settings(max_examples=150, deadline=None)
    @given(seed=SEEDS, key=KEYS, k=st.integers(1, 70))
    def test_matches_random_raw(self, seed, key, k):
        words = _entropy_words(seed, *key)
        expected = np.random.PCG64(np.random.SeedSequence(words)).random_raw(k)
        got = _pcg64_outputs(_seed_states(words[None, :]), k)
        assert got.shape == (1, k) and got.dtype == np.uint64
        assert np.array_equal(got[0], expected)

    def test_rows_are_independent(self):
        states = _row_states(7, ("trial", "x1"), 40)
        got = _pcg64_outputs(states, 9)
        for row in range(40):
            words = _entropy_words(7, "trial", "x1", row)
            assert np.array_equal(got[row], np.random.PCG64(np.random.SeedSequence(words)).random_raw(9))

    def test_halves_are_low_then_high(self):
        outputs = np.array([[0x0123456789ABCDEF, 0xFEDCBA9876543210]], dtype=np.uint64)
        assert _halves(outputs) == [[0x89ABCDEF, 0x01234567, 0x76543210, 0xFEDCBA98]]

    def test_no_jump_constants_at_import(self):
        # set-up time is measured from the imports, so the constants wait for a first draw
        code = ("import coordline.cli, coordline.codebooks as c; "
                "assert c._jump_constants.cache_info().currsize == 0")
        env = dict(os.environ, PYTHONPATH=str(Path(codebooks.__file__).parents[1]))
        subprocess.run([sys.executable, "-c", code], check=True, env=env)


class TestStratifiedQuantiles:
    """Each row's (permutation(count) + random(count)) / count, as the Generator of its
    stream draws it."""

    @pytest.mark.parametrize("count", [1, 2, 3, 5, 22, 33, 210, 1000])
    @settings(max_examples=6, deadline=None)
    @given(seed=SEEDS, key=KEYS)
    def test_matches_generator(self, count, seed, key):
        rows = 24 if count < 100 else 3
        got = _stratified_quantiles(_row_states(seed, key, rows), count)
        for row in range(rows):
            assert np.array_equal(got[row], _generator_quantiles(seed, key, row, count))

    @pytest.mark.parametrize("count, row", [(3, 13), (5, 10)])
    def test_row_outrunning_the_first_outputs(self, count, row, monkeypatch):
        # these rows redraw so often that their shuffle reads past the 2 * count - 1
        # outputs drawn for every row, so they take 4 * count - 2
        states = _row_states(5, ("ext",), row + 2)
        first = _pcg64_outputs(states, 2 * count - 1)
        assert _shuffle(count, _halves(first[row, :count - 1])) is None
        assert all(_shuffle(count, _halves(first[r, :count - 1])) is not None
                   for r in range(row + 2) if r != row)
        calls = []
        original = codebooks._pcg64_outputs

        def spy(states, stop):
            calls.append((len(states), stop))
            return original(states, stop)

        monkeypatch.setattr(codebooks, "_pcg64_outputs", spy)
        got = _stratified_quantiles(states, count)
        assert calls == [(row + 2, 2 * count - 1), (1, 4 * count - 2)]
        for r in range(row + 2):
            assert np.array_equal(got[r], _generator_quantiles(5, ("ext",), r, count))

    def test_shuffle_reports_outputs_read(self):
        # count 2 takes one draw, the low half of output 0; random then starts at output 1
        perm, used = _shuffle(2, [0, 1])
        assert perm == [1, 0] and used == 1
        assert _shuffle(3, [3, 3]) is None  # 3 & 3 > 2 twice: the draws run out


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

    def test_copy3_books(self):
        exp = Experiment(preset_config("copy3"))
        cb = build_codebooks(exp.spec, exp.rates, 2, 5)
        self._assert_prefix(lambda trials: run_scheme(cb, exp.mode, trials, exp.seed))

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
    """The line's nested books, level by level: each free parent row of a book draws its
    codewords from the stream (seed, *key, row), however many parents the book has."""

    _wide_books = staticmethod(wide_books)

    def test_levels_match_per_prefix_streams(self, monkeypatch):
        # C2's parents are every (m+, m-) pair: 32 * 32 = 1024, so its draw crosses a block
        cb = self._wide_books(1.0)
        assert cb.sizes[m_plus((1, 2))] * cb.sizes[m_minus((1, 2))] > STREAM_BLOCK_ROWS
        assert cb.c[2].parents.size > STREAM_BLOCK_ROWS and cb.c[2].slots.size > 1
        words = cb.c[2].words
        assert not np.array_equal(words[:STREAM_BLOCK_ROWS], words[STREAM_BLOCK_ROWS:])
        monkeypatch.setattr(codebooks, "_draw_book", ref_draw_book)
        assert same_books(cb, build_codebooks(cb.spec, cb.rates, cb.n, cb.seed))

    def test_seed_sequences_do_not_scale_with_sizes(self, monkeypatch):
        # no SeedSequence or Generator at any size: one _seed_states pass per block of a
        # book's free rows. Here only C2's rows are free; A's and B's constant rows draw none
        built = []

        def forbidden(name):
            def build(*args, **kwargs):
                built.append(name)
                raise AssertionError(f"build_codebooks built a {name}")
            return build

        for name in ("SeedSequence", "PCG64", "Generator", "default_rng"):
            monkeypatch.setattr(np.random, name, forbidden(name))
        passes = []
        original = codebooks._seed_states

        def spy(entropy):
            passes.append(len(entropy))
            return original(entropy)

        monkeypatch.setattr(codebooks, "_seed_states", spy)
        for rate in (0.4, 1.0):
            passes.clear()
            cb = self._wide_books(rate)
            size = cb.c[2].parents.size
            assert passes == [min(STREAM_BLOCK_ROWS, size - start)
                              for start in range(0, size, STREAM_BLOCK_ROWS)]
        assert size == 1024 and passes == [STREAM_BLOCK_ROWS, STREAM_BLOCK_ROWS]
        assert built == []
