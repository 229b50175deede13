"""Scale-mode tests."""

import pytest

from repro.workloads import WORKLOADS, names

#: Every registry entry with a hybrid twin, as parametrize cells; the ids
#: are the protocol-family names (``WorkloadSpec.name``).
RING = [pytest.param(key, id=WORKLOADS[key].scale.name)
        for key in names(scale=True)]
