import pytest

from ta2n import gradcheck


@pytest.mark.parametrize("module", ["core", "ttm", "tc", "sc", "metric"])
def test_stage_cases_pass(module):
    results = gradcheck.run_cases(gradcheck.cases_for(module, 12), 12)
    assert results
    for name, report in results:
        assert report.passed, f"{name}: {report.summary()}"
