import pytest
from hypothesis import settings

from tul import enumeration

# property tests draw the same examples on every run and have no time limit
settings.register_profile("tul", derandomize=True, deadline=None)
settings.load_profile("tul")


@pytest.fixture
def no_draw(monkeypatch):
    """Any tensor draw fails the test: for refusals that must come before one."""
    def draw(*args):
        raise AssertionError("sample_tensor was called")

    monkeypatch.setattr("tul.tensors.sample_tensor", draw)


@pytest.fixture
def no_column(monkeypatch):
    """Any face column fails the test: for refusals that must come before a
    pass.  The cached passes and sorts are cleared, so none can stand in for one."""
    def column(*args):
        raise AssertionError("a face column was computed")

    monkeypatch.setattr("tul.enumeration._face_column", column)
    enumeration.covering_pass.cache_clear()
    enumeration._FACE_SORTS.clear()


@pytest.fixture
def sorts(monkeypatch):
    """The k of each sort of S_k made while the test runs, in order.  The
    cached passes and sorts are cleared first; a _face_sort call made a sort
    when it leaves a new entry in _FACE_SORTS."""
    made, face_sort = [], enumeration._face_sort

    def counted(k, rows):
        held = enumeration._FACE_SORTS.get(k)
        sort = face_sort(k, rows)
        if enumeration._FACE_SORTS[k] is not held:
            made.append(k)
        return sort

    monkeypatch.setattr(enumeration, "_face_sort", counted)
    enumeration.covering_pass.cache_clear()
    enumeration._FACE_SORTS.clear()
    return made
