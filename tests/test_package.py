import blockdag


def test_every_exported_name_resolves():
    assert [name for name in blockdag.__all__ if not hasattr(blockdag, name)] == []
    assert len(set(blockdag.__all__)) == len(blockdag.__all__)
