"""verify's outcomes on the split metacyclic products with nm <= 48, against the frozen sweep.

The file holds every product with nm <= 128 (tests/metacyclic_sweep.py);
CI compares all of them with the script.
"""

import pytest

from metacyclic_sweep import frozen_records, sweep_instances, sweep_record

TIER1_LIMIT = 48


@pytest.fixture(scope="module")
def expected():
    return frozen_records()


def test_sweep_lists_every_product_of_the_file():
    assert len(sweep_instances(TIER1_LIMIT)) == 193
    assert sweep_instances(128) == list(frozen_records())


@pytest.mark.parametrize("instance", sweep_instances(TIER1_LIMIT))
def test_sweep_product_matches_fixture(expected, instance):
    assert sweep_record(instance) == expected[instance]
