"""The README's library quick start runs and returns what it documents."""

import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_quick_start():
    text = README.read_text()
    section = text[text.index("## Library quick start") :]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(code, namespace)
    result, new = namespace["result"], namespace["new"]
    assert result.embedding.rank == 2
    assert result.certificate.is_certified is True
    assert result.embedding.Xi.shape == (308, 2)
    assert new.coords.shape == (2, 2)
    assert np.allclose(np.sum(new.coords**2, axis=1), new.kappa, rtol=1e-12, atol=0)
    assert new.degenerate.tolist() == [False, False]
