"""Fixtures shared by the test modules."""

import pytest


@pytest.fixture
def law_evaluations(monkeypatch):
    """The number of points of every evaluation of a law over an array of
    points (`material.eval_law_many`), which every block and certificate
    starts from, recorded while the test runs."""
    from evoq import material

    evaluate = material.eval_law_many
    calls = []

    def counting(law, z):
        calls.append(len(z))
        return evaluate(law, z)

    monkeypatch.setattr(material, "eval_law_many", counting)
    return calls
