"""CLI outputs the benchmark cannot see, pinned by their --no-meta digests.

Every system of the benchmark's battery pool lives on [0, 1), so its
golden digests cannot tell whether a moment, an independence check or a
domination side scales correctly by the domain length T.  These commands
run on two systems under tests/data on [0, 5/2): off_unit_system.json
(mu == 122/75 over the full family) and off_unit_multiplicative.json
(mu == 0, sup norms at most 1).  They cover reduce with every integrand
kind and with --full-trace, khintchine in even mode, rubinshtein, tail and
analyze.  The digests were recorded from the code before the value-pattern
histogram became a cached attribute of BoundedSystem; a change that moves
any exact number or its rendering fails here.  Four more pin full-family
calls on rademacher:8 to rademacher:12, recorded from the code that still
summed each subset's moment and tallied each subset's joint patterns.  Two
pin float domination sides other than exp:1 (power:2.5 and exp:1.5),
recorded from the code that still built a linear combination per side.
One pins select on unequal_pool.json, five orthogonal functions on five
unequal pieces: every golden select runs on a Walsh pool, where every
step sum is 0, so only a pool like this one shows a wrong dot product.
It was recorded from the code that summed each target in its own pass.
"""

import hashlib
import json
from pathlib import Path

import pytest

from multsys import stepfn
from multsys.cli import main

DATA = Path(__file__).resolve().parent / "data"

PINNED = (
    ("analyze --system off_unit_system.json",
     "36747940fe4e60e2517f04a9bdcce0d0dd38e188ed6023e73ef2b670f75981c1"),
    ("analyze --system off_unit_system.json --family l=2",
     "5e5e5aea89010c63bdaedcf48da267b52894727fbc7e893ab7ae0741ef5b8e8a"),
    ("reduce --system off_unit_system.json",
     "682642ae0b0a2f088778b8b288880b61ed128ebe4d566141633625343faec581"),
    ("reduce --system off_unit_system.json --phi exp:1",
     "b4d18fc74088b101926d8ddbd3c203bfdb5f97f9c437b612cfc2655785086787"),
    ("reduce --system off_unit_system.json --full-trace",
     "d19302e051dcd363e63accab9971d327f0c2e9282e03900d0fc1dbbe546eac7f"),
    ("reduce --system off_unit_system.json --phi exp:1 --full-trace --coeffs 3/4,-1/2,2",
     "c2ca9975074552dfaefdf0653793e84e21c7675ca318e02e55efc41686820d74"),
    ("reduce --system off_unit_system.json --family l=2 --phi hinge:1/3 --coeffs 1,-2,1/3",
     "6c8293e76d569528eeeb9be27a953835e9ae0f3fc79a07726bf893e58e6b7232"),
    ("reduce --system off_unit_system.json --phi power:3 --coeffs 2,1,-1",
     "8bc19017bf595c501595a168ceb908ab2e7c70f75d3246e8c4fb1beb4c10811f"),
    ("reduce --system off_unit_system.json --phi abs",
     "be0fec52a75581d84a0f39ac90df32b963f9f2858a96ca767c2f9ec40bab15ea"),
    ("khintchine --system off_unit_multiplicative.json -p 4 --mode even_integer --coeffs 1,2,-3,1/2",
     "72daa515140809ea4fe47051dc03493ab5859ad5a62779ab58c25ecb8378ea13"),
    ("khintchine --system off_unit_multiplicative.json -p 6 --mode even_integer",
     "77ab5745ce7d7eb062da4b73a1b5f84e1e49587ba079402be6d181737c088b0a"),
    ("rubinshtein --seed step:1,-1/2,3/4 --n 4",
     "55c155c4942b6f6f532988e2a48336eb2276bf65b605058254f30138eee28cfa"),
    ("rubinshtein --seed step:1,-1/2 --n 3 --l 2 --phi exp:1",
     "b5df1ab3799d08266efce5db3c12d086e0ec66781595aa9adf37a1dd67685597"),
    ("tail --system off_unit_system.json --level 1/2",
     "a14c37c4b418e3ccef4cea5ba5aad2d3415c6bda9bf063a1496ac9f11d463dc1"),
    # float sides past exp:1: a non-integer power and another rate, on a capped family
    ("reduce --system off_unit_system.json --phi power:2.5 --coeffs 1,2,3",
     "6494191ffe44052d5b3c67a588d1733bf5911211822289cd9277d031a978b83a"),
    ("reduce --system off_unit_system.json --family l=2 --phi exp:1.5",
     "9988f47714c48465644fe1e2febc69b29f2d112c609d9f57c7101f83aa3a003b"),
    # full or high-cap families at large n, where the subset-lattice fold
    # and the verdict read from moments take over from loops per subset
    ("analyze --system rademacher:12",
     "a4bac787bf4ce0b0494a6418fc3032f21a98ddbef33ec45ec0944e1385c873d8"),
    ("khintchine --system rademacher:12 --mode even_integer -p 12",
     "3e1c073f079650da195cd552429919d127df9abdf712b729216c9e12a45cb25f"),
    ("reduce --system rademacher:8",
     "8943a117ef894c9f2ebd3063e203af45f60018bc47a0e3c9ceaf70c15084cdf1"),
    ("tail --system rademacher:10 --level 3",
     "4470edcbb69ef8223567e96a35b21f264ce2f1349166c4d7426bae86482a3172"),
    ("select --system unequal_pool.json --rho 2 --steps 2",
     "2507dbe7e1cceb8efab7a04d4ee0ebe7da4d1f011717d16d9ec90c66ca5be15b"),
)


@pytest.mark.parametrize("op, digest", PINNED, ids=[op for op, _ in PINNED])
def test_pinned_command_output(capsys, monkeypatch, op, digest):
    monkeypatch.setattr(stepfn, "PIECE_CAP", stepfn.DEFAULT_PIECE_CAP)
    monkeypatch.chdir(DATA)
    code = main(op.split() + ["--no-meta"])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_the_pinned_select_has_a_nonzero_step_sum(capsys, monkeypatch):
    monkeypatch.chdir(DATA)
    code = main("select --system unequal_pool.json --rho 2 --steps 2 --no-meta".split())
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["per_step_sum"][1] != "0"
