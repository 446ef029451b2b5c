import itertools
import math

import pytest

from grassvar.errors import DimensionMismatchError, InvalidDegreeError
from grassvar.forms import KForm
from grassvar.kvector import enumerate_multiindices, multiindex_ranks

from .oracles import permutation_sign


def test_enumerate_small_cases():
    assert enumerate_multiindices(2, 3) == ((1, 2), (1, 3), (2, 3))
    assert enumerate_multiindices(1, 4) == ((1,), (2,), (3,), (4,))
    assert enumerate_multiindices(3, 3) == ((1, 2, 3),)


@pytest.mark.parametrize("k,m", [(1, 1), (2, 5), (3, 6), (4, 6)])
def test_enumerate_count_and_order(k, m):
    tuples = list(enumerate_multiindices(k, m))
    assert len(tuples) == math.comb(m, k)
    assert tuples == sorted(tuples)
    assert len(set(tuples)) == len(tuples)


def test_enumerate_invalid_degree():
    with pytest.raises(InvalidDegreeError):
        enumerate_multiindices(0, 3)
    with pytest.raises(InvalidDegreeError):
        enumerate_multiindices(4, 3)


def test_rank_examples():
    assert multiindex_ranks(2, 3)[(1, 2)] == 0
    assert multiindex_ranks(2, 3)[(2, 3)] == 2
    assert multiindex_ranks(1, 4)[(1,)] == 0


def test_rank_is_inverse_of_enumeration():
    for k, m in [(1, 4), (2, 5), (3, 5)]:
        for r, index in enumerate(enumerate_multiindices(k, m)):
            assert multiindex_ranks(k, m)[index] == r


def test_multiindex_validation():
    # only increasing k-tuples in 1..m have a rank; a form key must have one
    for key, k, m in [((2, 2), 2, 4), ((3, 2), 2, 4), ((0, 1), 2, 3), ((1, 4), 2, 3),
                      ((1,), 2, 3), ((1, 2, 3), 2, 3)]:
        assert key not in multiindex_ranks(k, m)
        with pytest.raises(DimensionMismatchError, match="increasing"):
            KForm.from_dict(k, m, {key: 1.0})
    with pytest.raises(DimensionMismatchError, match="increasing"):
        KForm.from_dict(0, 2, {(1,): 1.0})


def test_permutation_sign_consistency():
    # the oracles' parity, which spreads components over all index tuples
    base = (1, 3, 5, 6)
    for perm in itertools.permutations(base):
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        assert permutation_sign(perm) == (-1) ** inversions
