from hypothesis import given, strategies as st

import ref_seeding
from xner.seeding import stable_hash, unit_interval

PART = st.one_of(
    st.integers(),
    st.text(alphabet=st.characters(max_codepoint=127)),
    st.text(),
)


@given(st.lists(PART, max_size=5))
def test_stable_hash_matches_reference(parts):
    assert stable_hash(*parts) == ref_seeding.stable_hash(*parts)


@given(st.integers(), st.text(), st.integers(min_value=0))
def test_unit_interval_is_the_hash_over_2_to_64(seed, doc_id, index):
    value = unit_interval(seed, doc_id, index)
    assert 0 <= value < 1
    assert value == stable_hash(seed, doc_id, index) / 2**64


def test_parts_are_separated():
    assert stable_hash("ab", "c") != stable_hash("a", "bc")
    assert stable_hash(1, "x") == stable_hash("1", "x")
