import homcoh


def test_every_exported_name_resolves():
    missing = [name for name in homcoh.__all__ if not hasattr(homcoh, name)]
    assert not missing
