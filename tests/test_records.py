"""The result records are immutable namedtuples that validate on construction."""

import copy
import pickle

import numpy as np
import pytest

from momentbounds import (
    BoundResult,
    Certificate,
    DiscreteDistribution,
    FalsifierReport,
    FeasibilityReport,
    InfeasibleMomentsError,
    MomentInterval,
    MomentVector,
    OracleConfig,
    OracleResult,
    ReplayedTrial,
    bound_sqrt,
    certificate_from_hankel,
    feasibility,
    m3_interval,
    oracle_max_m3,
    random_falsifier,
    replay_trial,
)
from momentbounds import oracle
from momentbounds.oracle import LPSolution

MV = MomentVector(1, 0, 2, 2, 6)


def records():
    """One instance of each record type, oracle ones included."""
    cfg = OracleConfig(grid_lo=-2.0, grid_hi=2.0, grid_step=0.5)
    return [
        MV,
        DiscreteDistribution(((1.0, 1.0),)),
        feasibility(MV),
        bound_sqrt(MV),
        m3_interval(0.0, 1.0, 2.0),
        certificate_from_hankel(MV),
        cfg,
        oracle_max_m3(cfg),
        random_falsifier(3, 0),
        replay_trial(0, 1),
        oracle.lp_max(np.eye(2), np.ones(2), np.ones(2))[0],
    ]


@pytest.mark.parametrize("record", records(), ids=lambda r: type(r).__name__)
def test_fields_cannot_be_assigned_or_deleted(record):
    assert isinstance(record, tuple)
    for name in record._fields:
        value = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.not_a_field = 1


def test_every_record_type_is_covered():
    types = {MomentVector, DiscreteDistribution, FeasibilityReport, BoundResult,
                MomentInterval, Certificate, OracleConfig, OracleResult, FalsifierReport,
                LPSolution, ReplayedTrial}
    assert {type(r) for r in records()} == types


def test_moment_vector_computed_attributes_are_frozen():
    mv = MomentVector(1, 0, 2, 2, 6)
    for name in ("s", "unit", "psd", "cov"):
        value = getattr(mv, name)
        with pytest.raises(AttributeError):
            setattr(mv, name, value)
        with pytest.raises(AttributeError):
            delattr(mv, name)
        assert getattr(mv, name) == value
    with pytest.raises(AttributeError):
        mv.psd = not mv.psd
    assert mv.psd is True


def test_moment_vector_is_a_tuple_of_the_five_moments():
    mv = MomentVector(1, -2.0, 16.0, 8.0, 256.0)
    m0, m1, m2, m3, m4 = mv
    assert (m0, m1, m2, m3, m4) == mv == (1.0, -2.0, 16.0, 8.0, 256.0) == tuple(mv)
    assert mv._asdict() == {"m0": 1.0, "m1": -2.0, "m2": 16.0, "m3": 8.0, "m4": 256.0}
    assert hash(mv) == hash(MomentVector(1, -2.0, 16.0, 8.0, 256.0))


def test_copies_and_pickles_keep_the_computed_attributes():
    for twin in (copy.copy(MV), copy.deepcopy(MV), pickle.loads(pickle.dumps(MV))):
        assert twin == MV and type(twin) is MomentVector
        assert (twin.s, twin.unit, twin.psd, twin.cov) == (MV.s, MV.unit, MV.psd, MV.cov)


def test_replace_validates_and_recomputes():
    bigger, built = MV._replace(m4=16.0), MomentVector(1.0, 0, 2, 2, 16.0)
    assert bigger == built == (1.0, 0, 2, 2, 16.0)
    assert (bigger.s, bigger.unit, bigger.psd, bigger.cov) == (built.s, built.unit, built.psd, built.cov)
    with pytest.raises(InfeasibleMomentsError):
        MV._replace(m2=-1.0)
    with pytest.raises(ValueError):
        OracleConfig()._replace(grid_step=-1.0)
    with pytest.raises(ValueError):
        DiscreteDistribution(((1.0, 1.0),))._replace(atoms=((1.0, 0.5),))
    assert DiscreteDistribution(((1.0, 1.0),))._replace(atoms=((2.0, 1.0), (1.0, 0.0))).atoms == ((2.0, 1.0),)


def test_defaults_and_derived_members_survive():
    cfg = OracleConfig()
    assert cfg == (-3.0, 3.0, 0.01, 1.0, 3) and cfg.size == 601
    assert BoundResult(1.0, 0.0, 0.0, False).witness is None
    iv = MomentInterval(-1.0, 1.0)
    assert iv.lo <= 0.5 <= iv.hi
    rep = random_falsifier(3, 0)
    assert rep.total_violations == 0
    assert isinstance(feasibility(MV), FeasibilityReport)
