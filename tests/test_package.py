import envlp


def test_public_names_resolve():
    assert len(set(envlp.__all__)) == len(envlp.__all__)
    missing = [name for name in envlp.__all__ if not hasattr(envlp, name)]
    assert missing == []
