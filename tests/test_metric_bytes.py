"""Pinned bytes of the `metric` and `metric-from-ray` commands.

`tests/cli_snapshot.json` covers the exact commands only. Here each fixed
argument set runs in-process through `sascone.cli.main`, and the SHA-256
of its exit code, stdout and stderr is compared to a literal. A refactor
of the profile path must leave every digest as it is; a digest may change
only with a stated reason, like the roots of `test_pinned_roots`. To
print the current digests, run

    PYTHONPATH=src python tests/test_metric_bytes.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys

import pytest

from sascone.cli import main

LARGEST_DOUBLE = str(int(sys.float_info.max))


def _metric(m1, m2, r, d_n, fano, n, *extra):
    return ["metric", "--m1", str(m1), "--m2", str(m2), "--r", str(r), "--dN", str(d_n),
            "--fano-index", str(fano), "--n", str(n), *extra]


def _ray(base, join, ray, *extra):
    argv = ["metric-from-ray", "--base", base]
    for flag, value in zip(("--l1", "--l2", "--w1", "--w2", "--v1", "--v2"), join + ray):
        argv += [flag, str(value)]
    return argv + list(extra)


# (case, argv, SHA-256 of exit code, stdout and stderr)
CASES = [
    ("ke-k0-json", _metric(1, 1, 0.5, 0, 2, 1, "--out", "json"),
     "1402c56f774fe82fb3f730f531eaa34df4500c1fb7a25388eb2df65708b0fad5"),
    ("ke-k0-csv-grid3", _metric(1, 1, 0.5, 0, 2, 1, "--grid", "3"),
     "e01bec421aece36db23035524c34822da814265537a5f224614c4ff4c4b6120e"),
    ("series-root-csv", _metric(2, 1, 0.3, 3, 1, 1),
     "79f8656b9f88356422821b11bfb7ee227baf6525f5015b962c99ec485d9f6f51"),
    ("series-root-json", _metric(2, 1, 0.3, 3, 1, 1, "--out", "json"),
     "7708441df3f237e8134e8dcb7a21b1a0491a8622f8c0d2a110bed7183b4a1741"),
    ("closed-root-csv-grid2001", _metric(3, 2, -0.5, 1, 2, -4, "--grid", "2001"),
     "65d6faa3a0461a4961210fd2519adbd984a818ddecc349d8164ae80800687eb7"),
    ("closed-root-json-grid3", _metric(3, 2, -0.5, 1, 2, -4, "--out", "json", "--grid", "3"),
     "9245c15456f444865274d3eb42169cf3148b585cb5914a9a81e98c0b36b51392"),
    ("cp1-ray-3-2-csv", _ray("cp1", (4, 1, 1, 1), (3, 2)),
     "910de793b0ca058765796d5ea58465ba69d9aaf6eada46cd7645bbec9f91b2e3"),
    ("cp1-ray-3-2-json", _ray("cp1", (4, 1, 1, 1), (3, 2), "--out", "json"),
     "69f636879918e619d014378ca90aad667d056d6cbc79399226e4cffc8f34bec8"),
    ("cp20-ray-100-1-json", _ray("cp20", (1, 1, 7, 1), (100, 1), "--out", "json"),
     "c5eedeccc32d25080e363b212b8f737504f9ca080d43722a5c99134ab2098a18"),
    ("cp20-ray-100-1-csv", _ray("cp20", (1, 1, 7, 1), (100, 1)),
     "cfe68d87f53e727f3447a9bcba7660588c6967a357c1294f06c1f380aa025e85"),
    ("cp2-ray-1000-1-json", _ray("cp2", (1, 1, 12, 1), (1000, 1), "--out", "json"),
     "60a01986150c66340b289ccd482b687a9556729468c626a4ec334b634ab0b961"),
    ("cp50-exit5", _ray("cp50", (1, 1, 7, 1), (100, 1)),
     "cc961616805a76d42e3bd76ec7a7df6bc420dc885af34700d28278229aa233d1"),
    ("m2-largest-double-exit3", _metric(1, LARGEST_DOUBLE, 0.5, 1, 2, 1),
     "6d70feb24c062bb5f89d97904393c70642762c4ef7472b6c0e4dbc641085ce6c"),
    ("bad-r-exit2", _metric(3, 2, 1.5, 1, 2, 4),
     "395ae701978c214aef8229d1ae3bfebe4dffb76bdd09361b1821150bb673f584"),
]


def digest(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return hashlib.sha256(f"{code}\0{out.getvalue()}\0{err.getvalue()}".encode()).hexdigest()


@pytest.mark.parametrize("argv, expected", [case[1:] for case in CASES], ids=[case[0] for case in CASES])
def test_metric_output_bytes_are_pinned(argv, expected):
    assert digest(argv) == expected


if __name__ == "__main__":
    for name, argv, _ in CASES:
        print(f'{name}: "{digest(argv)}"')
