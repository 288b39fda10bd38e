"""The flat index of the simulator register, and refusals of modes beyond it."""

import numpy as np
import pytest

from qwalk.detection import GateSpec, WalkInputs, build_layout, scan_patterns
from qwalk.errors import IndexOutOfRange, ModeCollision
from qwalk.gaussian import SourceSpec, prepare
from qwalk.modes import IDLER, ModeIndex, Pol, flat_index


def registry_labels(bins: int, idler: bool) -> list:
    """The register's labels in flat order, as a label table once listed
    them: both sectors of the walk, H before V, bins ascending, then the idler."""
    labels = [
        ModeIndex(pol, m, sector)
        for sector in (0, 1)
        for pol in (Pol.H, Pol.V)
        for m in range(1, bins + 1)
    ]
    return labels + [IDLER] if idler else labels


@pytest.mark.parametrize("idler", (False, True))
def test_flat_index_follows_the_label_table(idler):
    for bins in range(1, 61):
        labels = registry_labels(bins, idler)
        assert [flat_index(label, bins) for label in labels] == list(range(len(labels)))


def test_flat_index_refuses_bins_beyond_the_register():
    assert flat_index(ModeIndex(Pol.V, 3, 1), 3) == 11
    with pytest.raises(IndexOutOfRange):
        flat_index(ModeIndex(Pol.H, 4, 0), 3)


@pytest.mark.parametrize("kind", ("coherent", "tmsv", "squashed"))
def test_sources_beyond_the_register_are_refused(kind):
    source = SourceSpec(kind, ModeIndex(Pol.V, 3, 0), 0.1)
    with pytest.raises(IndexOutOfRange):
        prepare((source,), bins=2)


def test_gates_beyond_the_register_are_refused():
    source = SourceSpec("coherent", ModeIndex(Pol.V, 1, 0), 0.1)
    # coherent light alone on the 2 x 2 walk modes of a 2-bin register
    inputs = WalkInputs(np.zeros(4), np.full(4, 0.1 + 0j), 1.0, None, 0.0, None)
    assert scan_patterns(inputs, [(1, 2)], 0.97, ("APD3", "APD4")).shape == (1,)
    with pytest.raises(IndexOutOfRange):
        scan_patterns(inputs, [(1, 3)], 0.97, ("APD3", "APD4"))
    with pytest.raises(IndexOutOfRange):
        build_layout(prepare((source,), bins=2), (GateSpec(3),))


def test_colliding_sources_name_the_target():
    sources = (
        SourceSpec("coherent", ModeIndex(Pol.H, 2, 0), 0.1),
        SourceSpec("tmsv", ModeIndex(Pol.H, 2, 0), 0.1),
    )
    with pytest.raises(ModeCollision, match=r"two sources target mode \(H,t2,s0\)"):
        prepare(sources, bins=2)
