"""Input checks that refuse bad input with a FusionRingError: group tables and
cyclic orders, tensors, character tables and modular data."""

import io
import json

import numpy as np
import pytest

import fusionring as fr
from fusionring import cli
from fusionring.core import FusionRingError, MalformedInput, NonIntegralMultiplicity
from fusionring.exact import RootOfUnity
from fusionring.nearintegral import NotNearIntegral


@pytest.mark.parametrize("table, message", [
    ([[0, 1], [1, 0.9]], r"entries must lie in range\(2\)"),
    ([[0, 1.5], [1, 0]], r"entries must lie in range\(2\)"),
    ([[0, True], [True, 0]], r"entries must lie in range\(2\)"),
    ([[0, 2 ** 64], [1, 0]], r"entries must lie in range\(2\)"),
    ([[0, 1], [1]], "must be square"),
    ([[0, 1], [1, 0, 0]], "must be square"),
    ([[0, 1], 1], "must be square"),
], ids=["0.9", "1.5", "bool", "2^64", "short-row", "long-row", "scalar-row"])
def test_group_ring_refuses_a_table_of_non_indices(table, message):
    with pytest.raises(FusionRingError, match=message):
        fr.group_ring(table)


@pytest.mark.parametrize("orders", [[2.5], ["3"], [True], [3, 0], [np.float64(2.0)],
                                    [np.bool_(True)], [np.array(True)], [np.array(2.0)],
                                    [np.array(3), np.array(0)]], ids=repr)
def test_cyclic_orders_must_be_positive_integers(orders):
    for build in (fr.group_ring, fr.quadratic_forms):
        with pytest.raises(FusionRingError, match="must be positive integers"):
            build(orders)


def test_numpy_integers_are_indices_and_orders():
    table = np.array([[0, 1], [1, 0]], dtype=np.int64)
    assert fr.group_ring([list(row) for row in table]) == fr.group_ring([[0, 1], [1, 0]])
    assert fr.group_ring([np.int64(3)]) == fr.group_ring([3])
    # a 0-d integer array is an order, as operator.index reads it
    assert fr.group_ring([np.array(2), np.array(3)]) == fr.group_ring([2, 3])
    assert len(fr.quadratic_forms([np.array(3), np.uint8(3)])) == 27
    # a 2-D array, or a list or tuple of 1-D rows, is a table; 1-D, orders
    assert fr.group_ring(table) == fr.group_ring([[0, 1], [1, 0]])
    assert fr.group_ring(list(table)) == fr.group_ring([[0, 1], [1, 0]])
    assert fr.group_ring(tuple(table)) == fr.group_ring([[0, 1], [1, 0]])
    assert fr.group_ring(np.array([2, 3])) == fr.group_ring([2, 3])
    with pytest.raises(FusionRingError, match=r"entries must lie in range\(2\)"):
        fr.group_ring(np.array([[0, 1], [1, 0.9]]))


GAGOLA_DEGREE = {"order": 5, "rows": [[1, 1], [2, -0.5]], "classSizes": [1, 4]}


def test_gagola_degree_must_divide_the_order(capsys, monkeypatch):
    with pytest.raises(NotNearIntegral, match=r"^degree 2 does not divide \|G\| = 5$"):
        fr.gagola_analyze(fr.table_from_json(GAGOLA_DEGREE))
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(GAGOLA_DEGREE)))
    assert cli.run(["gagola", "-"]) == 1
    assert capsys.readouterr() == (
        "no Gagola character: degree 2 does not divide |G| = 5\n", "")


@pytest.mark.parametrize("tensor, error, message", [
    (np.zeros((2, 2, 3), dtype=np.int64), FusionRingError, r"must be n x n x n"),
    (np.array([[[1.5]]], dtype=object), NonIntegralMultiplicity, "must be integers"),
    (np.array([[[-1]]], dtype=object), NonIntegralMultiplicity, "must be nonnegative"),
    (np.zeros((0, 0, 0), dtype=np.int64), FusionRingError, r"must be n x n x n, n >= 1"),
], ids=["2x2x3", "object-1.5", "object-negative", "empty"])
def test_tensor_shape_and_object_entries(tensor, error, message):
    with pytest.raises(error, match=message):
        fr.FusionRing([f"x{i}" for i in range(tensor.shape[0])], tensor,
                      list(range(tensor.shape[0])))


def test_character_table_must_be_square():
    with pytest.raises(FusionRingError, match="^character table must be square$"):
        fr.CharacterTable(2, [[1, 1]], (1, 1))


@pytest.mark.parametrize("x, y", [([1, 0, 0], [1, 0]), ([1, 0], [[1, 0]])])
def test_fuse_needs_full_rank_vectors(x, y):
    with pytest.raises(FusionRingError, match="full rank"):
        fr.group_ring([2]).fuse(x, y)


VEC = fr.ModularDatum([[1]], (RootOfUnity(0, 1),))


def test_twists_must_be_roots_of_unity():
    with pytest.raises(FusionRingError, match="^twists must be RootOfUnity values$"):
        fr.ModularDatum([[1]], (1,))


def test_gauss_sums_need_equal_lengths():
    with pytest.raises(FusionRingError, match="^dims and twists must have equal length$"):
        fr.gauss_sums([1, 1], [1])


def test_balancing_needs_the_datum_rank():
    with pytest.raises(FusionRingError, match="^ring rank must match the datum$"):
        fr.balancing_check(fr.group_ring([2]), VEC)


@pytest.mark.parametrize("dims", [["x"], [1, 1], 1, [2 ** 63]], ids=repr)
def test_datum_dims_must_be_numbers_one_per_row(dims):
    with pytest.raises(MalformedInput, match="^'dims' must list one number below 2"):
        fr.modular_datum_from_json({"S": [[1]], "T": [[0, 1]], "dims": dims})
