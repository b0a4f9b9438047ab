import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from groupwalk import (
    AmenableSubgroup,
    CyclicGroup,
    DirectProduct,
    FreeAbelian,
    FreeGroup,
    GSet,
    Lamplighter,
    SpecMismatchError,
    ball,
    certify_visibility,
    folner_set,
)
from groupwalk.amenable import VisibilityCertificate, invariance_defect

Z = FreeAbelian(1)
F2xZ = DirectProduct((FreeGroup(2), FreeAbelian(1)))
LAMP = Lamplighter()


def test_folner_interval_on_z():
    H = AmenableSubgroup(Z, "whole")
    B = GSet(Z, frozenset([(1,), (-1,)]))
    F = folner_set(H, B, Fraction(1, 3))
    # [-3, 3]: defect 2 < 7/3
    assert F.elements == frozenset((k,) for k in range(-3, 4))
    assert invariance_defect(Z, B, F) == 2


def test_folner_empty_b_gives_identity():
    H = AmenableSubgroup(Z, "whole")
    F = folner_set(H, GSet(Z, frozenset()), Fraction(1, 5))
    assert F.elements == frozenset([Z.identity])


def test_folner_rejects_b_outside_h():
    H = AmenableSubgroup(F2xZ, "center")
    B = GSet(F2xZ, frozenset([((1,), (0,))]))  # not central
    with pytest.raises(SpecMismatchError):
        folner_set(H, B, Fraction(1, 2))


@given(st.integers(2, 9), st.integers(1, 3))
@settings(max_examples=30, deadline=None)
def test_folner_invariance_always_exact(denom, radius):
    H = AmenableSubgroup(Z, "whole")
    B = GSet(Z, frozenset((k,) for k in range(-radius, radius + 1) if k)).symmetrized()
    eps = Fraction(1, denom)
    F = folner_set(H, B, eps)
    assert F.is_symmetric()
    # the defining inequality, with integer counts
    assert invariance_defect(Z, B, F) * denom < len(F)


@given(st.integers(2, 12))
@settings(max_examples=20, deadline=None)
def test_folner_monotone_in_eps(denom):
    H = AmenableSubgroup(Z, "whole")
    B = GSet(Z, frozenset([(1,), (-1,)]))
    big = folner_set(H, B, Fraction(1, denom))
    bigger = folner_set(H, B, Fraction(1, denom + 1))
    assert len(bigger) >= len(big)


def test_folner_on_lamps():
    H = AmenableSubgroup(LAMP, "lamps")
    B = GSet(LAMP, frozenset([((0,), 0)]))
    F = folner_set(H, B, Fraction(1, 4))
    assert all(x[1] == 0 for x in F.elements)
    assert invariance_defect(LAMP, B, F) * 4 < len(F)


def test_folner_on_product_factor():
    g = DirectProduct((FreeAbelian(1), CyclicGroup(3)))
    H = AmenableSubgroup(g, "factor:0")
    B = GSet(g, frozenset([((1,), 0), ((-1,), 0)]))
    F = folner_set(H, B, Fraction(1, 2))
    assert all(x[1] == 0 for x in F.elements)


def test_embedding_validation():
    with pytest.raises(SpecMismatchError):
        AmenableSubgroup(FreeGroup(2), "whole")  # F2 is not amenable
    with pytest.raises(SpecMismatchError):
        AmenableSubgroup(Z, "lamps")
    with pytest.raises(SpecMismatchError):
        AmenableSubgroup(F2xZ, "factor:0")  # the free factor
    AmenableSubgroup(F2xZ, "factor:1")  # the abelian one is fine


def test_certificate_structural_pass():
    S = GSet(F2xZ, frozenset([((), (1,))]))
    H = AmenableSubgroup(F2xZ, "center")
    cert = certify_visibility(S, H)
    assert cert.verdict == "pass"


def test_certificate_structural_soundness_sampled():
    # for a normal H the certificate claims S cap H^gamma nonempty for every
    # gamma; spot-check on a whole ball of conjugators
    g = F2xZ
    S = GSet(g, frozenset([((), (1,))]))
    H = AmenableSubgroup(g, "center")
    assert certify_visibility(S, H).verdict == "pass"
    for gamma in ball(g, 2):
        assert any(H.contains(g.conjugate(x, gamma)) for x in S.elements)


@pytest.mark.parametrize(
    "group, embedding",
    [
        (DirectProduct((FreeAbelian(1), CyclicGroup(3))), "whole"),
        (F2xZ, "center"),
        (F2xZ, "factor:1"),
        (FreeGroup(2), "trivial"),
        (LAMP, "lamps"),
    ],
    ids=["whole", "center", "factor", "trivial", "lamps"],
)
def test_every_embedding_kind_is_normal(group, embedding):
    # certify_visibility checks only gamma = e, which is sound because
    # each admitted kind is closed under conjugation
    H = AmenableSubgroup(group, embedding)
    near = ball(group, 2).elements
    for x in near:
        if H.contains(x):
            assert all(H.contains(group.conjugate(x, gamma)) for gamma in near)


def test_certificate_refuted_at_identity():
    # S misses the lamps subgroup entirely, so the identity conjugate refutes it
    S = GSet(LAMP, frozenset([((), 1)]))
    H = AmenableSubgroup(LAMP, "lamps")
    cert = certify_visibility(S, H)
    assert cert.verdict == "refuted"


def test_certificate_json_round_trip():
    S = GSet(F2xZ, frozenset([((), (1,))]))
    H = AmenableSubgroup(F2xZ, "center")
    cert = certify_visibility(S, H)
    doc = json.loads(cert.to_json())
    assert sorted(doc) == ["S", "group", "subgroup", "verdict"]
    again = VisibilityCertificate(doc["group"], tuple(doc["S"]), doc["subgroup"], doc["verdict"])
    assert again == cert
