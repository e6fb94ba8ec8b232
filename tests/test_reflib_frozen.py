"""perfbench/reflib is the frozen copy of the library that the benchmark's
reference clock runs: a change copied into it would move every reference
second, so its files must match the digest taken when it was frozen."""

import hashlib
from pathlib import Path

REFLIB = Path(__file__).resolve().parent.parent / "perfbench" / "reflib"
FROZEN_SHA256 = "a89811eecc60abe29b17b9296ef59baceee34f0dadd27ac65664c29cd91824d6"


def test_reflib_is_frozen():
    digest = hashlib.sha256()
    for path in sorted(REFLIB.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    assert digest.hexdigest() == FROZEN_SHA256
