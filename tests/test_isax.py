"""Tests for iSAX multi-resolution prefixes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.series import euclidean, random_walk
from repro.summaries import ISAXPrefix, SAXConfig, paa, sax_words

CONFIG = SAXConfig(series_length=64, word_length=4, cardinality=16)


def test_root_matches_everything():
    root = ISAXPrefix.root(4)
    data = random_walk(10, length=64, seed=0)
    words = sax_words(data, CONFIG)
    assert root.matches_batch(words, CONFIG).all()
    assert root.mindist(paa(data[0], 4)[0], CONFIG) == 0.0


def test_prefix_validation():
    with pytest.raises(ValueError):
        ISAXPrefix((2,), (1,))  # symbol 2 needs 2 bits
    with pytest.raises(ValueError):
        ISAXPrefix((0,), (-1,))
    with pytest.raises(ValueError):
        ISAXPrefix((0, 0), (1,))


def test_from_full_word_truncation():
    word = np.array([0b1010, 0b0110, 0b1111, 0b0000])
    prefix = ISAXPrefix.from_full_word(word, CONFIG, bits=(2, 1, 3, 0))
    assert prefix.symbols == (0b10, 0b0, 0b111, 0)


def test_matches_batch_agrees_with_scalar():
    data = random_walk(30, length=64, seed=1)
    words = sax_words(data, CONFIG)
    prefix = ISAXPrefix.from_full_word(words[0], CONFIG, bits=(2, 2, 1, 1))
    batch = prefix.matches_batch(words, CONFIG)
    scalar = np.array([prefix.matches(w, CONFIG) for w in words])
    np.testing.assert_array_equal(batch, scalar)
    assert batch[0]  # its own word matches


def test_split_partitions_members():
    data = random_walk(200, length=64, seed=2)
    words = sax_words(data, CONFIG)
    root = ISAXPrefix.root(4)
    left, right = root.split(0)
    in_left = left.matches_batch(words, CONFIG)
    in_right = right.matches_batch(words, CONFIG)
    np.testing.assert_array_equal(in_left ^ in_right, np.ones(200, dtype=bool))


def test_split_deepens_one_segment():
    root = ISAXPrefix.root(4)
    left, right = root.split(2)
    assert left.bits == (0, 0, 1, 0)
    assert left.symbols[2] == 0
    assert right.symbols[2] == 1
    assert left.depth == 1


def test_mindist_is_lower_bound_for_members():
    data = random_walk(100, length=64, seed=3)
    words = sax_words(data, CONFIG)
    query = random_walk(1, length=64, seed=77)[0]
    query_paa = paa(query, 4)[0]
    prefix = ISAXPrefix.from_full_word(words[0], CONFIG, bits=(2, 2, 2, 2))
    members = prefix.matches_batch(words, CONFIG)
    bound = prefix.mindist(query_paa, CONFIG)
    for i in np.nonzero(members)[0]:
        assert bound <= euclidean(query, data[i]) + 1e-6


def test_mindist_shrinks_with_depth():
    """Coarser regions give weaker (smaller) bounds."""
    data = random_walk(1, length=64, seed=4)
    word = sax_words(data, CONFIG)[0]
    query = random_walk(1, length=64, seed=5)[0]
    query_paa = paa(query, 4)[0]
    previous = -1.0
    for depth in range(CONFIG.bits_per_symbol + 1):
        prefix = ISAXPrefix.from_full_word(word, CONFIG, bits=(depth,) * 4)
        bound = prefix.mindist(query_paa, CONFIG)
        assert bound >= previous - 1e-12
        previous = bound


def test_choose_split_segment_prefers_balance():
    # Segment 0: all words share the next bit -> bad split.
    # Segment 1: words split 50/50 on the next bit -> good split.
    words = np.array([[0b0000, 0b0000], [0b0001, 0b1000]] * 5)
    config = SAXConfig(series_length=32, word_length=2, cardinality=16)
    root = ISAXPrefix.root(2)
    assert root.choose_split_segment(words, config) == 1


def test_choose_split_segment_exhausted():
    config = SAXConfig(series_length=32, word_length=2, cardinality=4)
    full = ISAXPrefix((1, 2), (2, 2))
    with pytest.raises(ValueError):
        full.choose_split_segment(np.array([[1, 2]]), config)


def test_str_rendering():
    prefix = ISAXPrefix((0b10, 0), (2, 0))
    assert str(prefix) == "10 *"


@settings(max_examples=60, deadline=None)
@given(
    word_length=st.sampled_from([2, 4, 8, 16]),
    cardinality=st.sampled_from([2, 4, 16, 256]),
    choices=st.data(),
    seed=st.integers(0, 2**32 - 1),
)
def test_property_mindist_is_lower_bound_for_members_on_float32_random_walks(
    word_length, cardinality, choices, seed
):
    """``test_mindist_is_lower_bound_for_members`` over searched regions:
    float32-stored random walks, a float64 query, any prefix depths."""
    config = SAXConfig(series_length=64, word_length=word_length, cardinality=cardinality)
    bits = tuple(
        choices.draw(st.lists(
            st.integers(0, config.bits_per_symbol),
            min_size=word_length, max_size=word_length,
        ))
    )
    data = random_walk(100, length=64, seed=seed)
    assert data.dtype == np.float32
    words = sax_words(data, config)
    query = random_walk(1, length=64, seed=seed + 1)[0].astype(np.float64)
    member = choices.draw(st.integers(0, len(data) - 1))
    prefix = ISAXPrefix.from_full_word(words[member], config, bits=bits)
    members = prefix.matches_batch(words, config)
    assert members[member]
    bound = prefix.mindist(paa(query, word_length)[0], config)
    for i in np.nonzero(members)[0]:
        assert bound <= euclidean(query, data[i]) + 1e-6
