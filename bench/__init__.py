"""The cost-ladder benchmark (see ``bench/README.md``).

One deterministic fleet of GPS events is replayed through four successively
thicker paths of the program — batch pipeline + store, streaming engine,
one-shard thread service, durable two-shard process service — and every
output is checked against the sequential pipeline.  Everything here drives
``repro`` from outside through its public functions.

Importing the package only makes ``src/`` of *this* checkout importable, so
the benchmark always measures the code it sits next to.
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
