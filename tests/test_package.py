import tddsim


def test_every_exported_name_resolves():
    assert [name for name in tddsim.__all__ if not hasattr(tddsim, name)] == []
    assert len(set(tddsim.__all__)) == len(tddsim.__all__)
