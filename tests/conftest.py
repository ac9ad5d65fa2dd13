import pytest

from griesmer import transforms


@pytest.fixture
def off_by_one(monkeypatch):
    """The walked hyperplane update, wrong by one on the hyperplane of least
    multiplicity: n and d stay right, so only the kernel cross-check sees it."""
    walk = transforms._walk_mults

    def wrong(M, flat):
        walked = walk(M, flat)
        walked[walked.argmin()] -= 1
        return walked

    monkeypatch.setattr(transforms, "_walk_mults", wrong)
