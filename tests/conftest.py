import pytest


@pytest.fixture(scope="session")
def group_k():
    from trimoduli import reflection_group

    return reflection_group.group_k()


@pytest.fixture(scope="session")
def calibrated():
    from oracles import calibration_entries

    return calibration_entries()
