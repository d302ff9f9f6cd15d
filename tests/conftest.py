import pytest

import contract


@pytest.fixture(scope="session")
def reports():
    """{golden file name: report} for the twelve contract configurations,
    built once per session: seeds 0-3, each with all checks, numeric only
    and symbolic only."""
    return contract.build_reports()
