import pytest

from parkcp.model import NodeClass, Position2D
from parkcp.policy import Candidate


@pytest.fixture
def make_candidate():
    """Factory for localizer candidates with a pre-measured range."""

    def _make(
        vehicle_id=1,
        node_class=NodeClass.ANCHOR,
        x=0.0,
        y=0.0,
        measured=1.0,
    ):
        return Candidate(vehicle_id, node_class, Position2D(x, y), measured)

    return _make
