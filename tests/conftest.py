import json

import numpy as np
import pytest

from liepoisson import algebra as la
from liepoisson import extension as ext


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def so3():
    return la.so3()


@pytest.fixture(scope="session")
def gl2():
    return la.gl(2)


@pytest.fixture(scope="session")
def h3():
    return la.heisenberg()


def vector_rep_spec():
    """R^3 abelian extended by so(3) through the cross-product action."""
    n = la.abelian(3)
    h = la.so3()
    mats = np.stack([h.ad(np.eye(3)[i]) for i in range(3)])
    return ext.ExtensionSpec(
        n,
        h,
        ext.SkewBilinearMap.zero(h, n),
        ext.DerivationMap(h, n, mats),
        la.identity_pairing(n),
        la.identity_pairing(h),
    )


def heisenberg_spec():
    """R extended by the abelian plane through the area cocycle."""
    n = la.abelian(1)
    h = la.abelian(2)
    w = np.zeros((1, 2, 2))
    w[0, 0, 1] = 1.0
    w[0, 1, 0] = -1.0
    return ext.ExtensionSpec(
        n,
        h,
        ext.SkewBilinearMap(h, n, w),
        ext.DerivationMap.zero(h, n),
        la.identity_pairing(n),
        la.identity_pairing(h),
    )


@pytest.fixture(scope="session")
def e3_spec():
    return vector_rep_spec()


@pytest.fixture(scope="session")
def h3_spec():
    return heisenberg_spec()


@pytest.fixture(autouse=True)
def json_text_equals_json_dumps(monkeypatch):
    """Every JSON output the CLI writes in the suite (each ``verify``
    report and each bracket table) equals ``json.dumps(doc, indent=2,
    sort_keys=True)``."""
    from liepoisson import cli

    writer = cli._json_text

    def checked(doc):
        text = writer(doc)
        assert text == json.dumps(doc, indent=2, sort_keys=True)
        return text

    monkeypatch.setattr(cli, "_json_text", checked)
