import pytest
from hypothesis import Phase, settings

settings.register_profile("suite", max_examples=50, deadline=None)
settings.load_profile("suite")
# for the kept mutants (python -m pytest -q mutants): a mutant is caught by
# the first failing example, so skip the shrinking, which takes most of
# the time, and save no example for later runs to replay
settings.register_profile("mutants", settings.get_profile("suite"),
                          phases=[Phase.explicit, Phase.generate],
                          database=None)


@pytest.fixture(scope="session")
def catalog():
    from superplane.presentations import build_catalog

    return build_catalog()


@pytest.fixture(scope="session")
def reports(catalog):
    # one shared run keeps the whole suite inside the time budget
    from superplane.verify import run_all

    return run_all(catalog)


@pytest.fixture(scope="session")
def confluence_reports(catalog):
    from superplane.algebra import check_local_confluence
    from superplane.presentations import catalog_presentations

    return {name: check_local_confluence(pres, max_len=4)
            for name, pres in catalog_presentations(catalog).items()}
