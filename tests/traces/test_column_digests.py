"""Every column of every catalogue workload, pinned bit for bit.

The generators write their ``array`` columns directly; these digests were
recorded on the row-at-a-time generators they replaced, so any change to a
column's values, length or type code fails here.
"""

import hashlib

import pytest

from repro.traces import CATALOGUE, gaussian_trace, wait_chain_trace, workload
from repro.traces.trace import _COLUMNS


def column_digest(trace):
    """sha256 over each column's name, type code and bytes, in column order."""
    h = hashlib.sha256()
    for key in _COLUMNS:
        col = getattr(trace, key)
        h.update(f"{key}:{col.typecode}:{len(col)}".encode())
        h.update(col.tobytes())
    return h.hexdigest()


#: Column digests at each catalogue entry's own parameters.
CATALOGUE_DIGESTS = {
    "h264":
        "1294ea9c8038640329bb21197ab6b2f56c79d715820d386ed235eae741dcd3d4",
    "independent":
        "3b8f99757fa2bac87caaad1dc16204374eedf97aa6f4081a6798848781760557",
    "horizontal":
        "8df404ecd3f115aaed4fd8c93528caf305811a49f3da3ffbc225c16467e3e0ec",
    "vertical":
        "f687aaf2beaed55280775ec59943b4909a3540bd90a8d9f380cf65b0bfa012b5",
    "gaussian":
        "057146f56aaa497d30e36a740973f4d566de9fbaf6f2a23cd501de003ba4b4a2",
    "cholesky":
        "e3c06f0f4a0abb4a1536f9b274b5c137b68d422e7dd467ad372357441222dccf",
    "blocked-lu":
        "9d1488148ed3eba9014ac346ad20cb95bd3f3d6b75b6c165efda40281ca478e6",
    "jacobi":
        "50a830f39e1a3147989b3fba2868f95a7c27425e968953ca9fd326b8ddc811fc",
    "reduction":
        "fe6877ae9b6d1372b86a033b93d5dc1b74254862836df48c465040d57b00776e",
    "pipeline":
        "1a4d1a129ed87cd78ec08500b88514972a72d1296f541dfbe88bc5101edafaa4",
    "wait-chain":
        "73423340e2e169c87b9e1d0bbb8bbbf5038e7a6ca96bc38ac0c63355dbb5ef09",
    "spatial":
        "2d9512fd156d2ec60bc938d0f3de4c2e21e4567c933def4e691b94fb0eec087c",
    "random":
        "6bc2c82dc84eea0f9cd19f6930a1e180d003c58257cdbf3e40d67abfa31ddc78",
    "hazard-dense":
        "4e9e0ce9edb8d357cfc8e9db14f7c4d94bedfb2d31dfda6e6ea8302573d892c0",
    "param-dense":
        "88f41718ab66091f3046d00cd13bdfb712551b9c27dccb90030487ae842705dd",
    "stream-1p":
        "da6dd0a735fb6b2bea89b0f88b935a22f8440e04436e2a5a87658a8f51145319",
}

#: Wait-chains with several cross links and with lognormal jitter, which
#: no catalogue entry builds, and ``gaussian_trace(100)`` by its own call.
EXTRA_DIGESTS = [
    ("wait_chain_trace(32, 40, k_deps=3)",
     lambda: wait_chain_trace(32, 40, k_deps=3),
     "313d8a24840bd73d9576ef3de4e4e3588e50c52cc327d9eb12846573c524e231"),
    ("wait_chain_trace(8, 16, cv=0.5)",
     lambda: wait_chain_trace(8, 16, cv=0.5),
     "2171828ea4ded9ddf2bc866bb50d8db810b87977499a9b52782e1bb8cb641371"),
    ("gaussian_trace(100)", lambda: gaussian_trace(100),
     "057146f56aaa497d30e36a740973f4d566de9fbaf6f2a23cd501de003ba4b4a2"),
]


def test_every_catalogue_entry_is_pinned():
    assert set(CATALOGUE_DIGESTS) == set(CATALOGUE)


@pytest.mark.parametrize("name", list(CATALOGUE_DIGESTS))
def test_catalogue_columns(name):
    assert column_digest(workload(name)) == CATALOGUE_DIGESTS[name]


@pytest.mark.parametrize("build, digest", [e[1:] for e in EXTRA_DIGESTS],
                         ids=[e[0] for e in EXTRA_DIGESTS])
def test_extra_shape_columns(build, digest):
    assert column_digest(build()) == digest
