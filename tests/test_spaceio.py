import pytest
from hypothesis import given, settings, strategies as st

from irtopo.spaceio import ParseError, poset_from_dict, space_from_dict, space_to_dict
from irtopo.verifier import enumerate_spaces

SPACES_UPTO4 = [s for n in range(1, 5) for s in enumerate_spaces(n)]


@pytest.mark.parametrize(
    "doc",
    [
        {"labels": ["a", "b"], "reach": [[True, False]]},
        {"labels": ["a", "b"], "reach": [[0, True]]},
        {"labels": ["a", "b"], "opens": [[], [False], [0, 1]]},
        {"labels": ["a", "b"], "opens": [[], [0], [True, 0]]},
    ],
)
def test_space_rejects_boolean_indices(doc):
    with pytest.raises(ParseError):
        space_from_dict(doc)


def test_poset_rejects_boolean_indices():
    with pytest.raises(ParseError):
        poset_from_dict({"labels": ["p", "q"], "leq": [[False, True]]})


def test_space_rejects_duplicate_labels():
    with pytest.raises(ParseError, match="duplicate label 'a'"):
        space_from_dict({"labels": ["a", "a"], "reach": []})


def test_poset_rejects_duplicate_labels():
    with pytest.raises(ParseError, match="duplicate label 'p'"):
        poset_from_dict({"labels": ["p", "p"], "leq": []})


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(SPACES_UPTO4))
def test_round_trip(space):
    back = space_from_dict(space_to_dict(space))
    assert back.reach_rows == space.reach_rows
    assert back.labels == space.labels
