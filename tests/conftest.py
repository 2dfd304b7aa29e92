"""Helpers shared by the test modules."""


def tol_scale(mv):
    """max(1, m4^(3/2)), the scale of the tests' absolute tolerances."""
    return max(1.0, mv.m4**1.5)
